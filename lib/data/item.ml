type t = int

let pp fmt i = Format.fprintf fmt "%d" i
let compare = Int.compare
let equal = Int.equal

module Vocab = struct
  type item = t

  type t = {
    by_name : (string, int) Hashtbl.t;
    by_id : string Olar_util.Vec.t;
  }

  let create () = { by_name = Hashtbl.create 64; by_id = Olar_util.Vec.create () }

  let size v = Olar_util.Vec.length v.by_id

  let intern v name =
    match Hashtbl.find_opt v.by_name name with
    | Some i -> i
    | None ->
      let i = size v in
      Hashtbl.add v.by_name name i;
      Olar_util.Vec.push v.by_id name;
      i

  let of_names names =
    let v = create () in
    List.iter
      (fun n ->
        if Hashtbl.mem v.by_name n then invalid_arg "Item.Vocab.of_names: duplicate";
        ignore (intern v n))
      names;
    v

  let id v name = Hashtbl.find_opt v.by_name name

  let name v i =
    if i < 0 || i >= size v then invalid_arg "Item.Vocab.name: unregistered id";
    Olar_util.Vec.get v.by_id i

  let names v = Olar_util.Vec.to_list v.by_id

  let save v path =
    Olar_util.Atomic_file.write path (fun oc ->
        Olar_util.Vec.iter
          (fun name ->
            output_string oc name;
            output_char oc '\n')
          v.by_id)

  let load path =
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
        of_names (List.rev !lines))
end
