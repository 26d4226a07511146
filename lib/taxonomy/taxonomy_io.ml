exception Malformed of string

let split_edge ~lineno line =
  match Str_split.arrow line with
  | Some (child, parent) when child <> "" && parent <> "" -> (child, parent)
  | _ ->
    raise
      (Malformed
         (Printf.sprintf "line %d: expected \"child -> parent\", got %S" lineno
            line))

let parse ?vocab lines =
  let vocab =
    match vocab with
    | Some v -> v
    | None -> Olar_data.Item.Vocab.create ()
  in
  let edges = ref [] in
  List.iteri
    (fun idx raw ->
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then begin
        let child, parent = split_edge ~lineno:(idx + 1) line in
        let c = Olar_data.Item.Vocab.intern vocab child in
        let p = Olar_data.Item.Vocab.intern vocab parent in
        edges := (c, p) :: !edges
      end)
    lines;
  let taxonomy =
    Taxonomy.of_parents
      ~num_items:(max 1 (Olar_data.Item.Vocab.size vocab))
      (List.rev !edges)
  in
  (vocab, taxonomy)

let load ?vocab path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      parse ?vocab (List.rev !lines))

let save vocab taxonomy path =
  Olar_util.Atomic_file.write path (fun oc ->
      for i = 0 to Taxonomy.num_items taxonomy - 1 do
        match Taxonomy.parent taxonomy i with
        | None -> ()
        | Some p ->
          let name j =
            try Olar_data.Item.Vocab.name vocab j
            with Invalid_argument _ ->
              invalid_arg "Taxonomy_io.save: unnamed item"
          in
          Printf.fprintf oc "%s -> %s\n" (name i) (name p)
      done)
