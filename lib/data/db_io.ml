exception Malformed of string

let magic = "# olar transaction database v1"

let print db out =
  Printf.fprintf out "%s\n" magic;
  Printf.fprintf out "items %d\n" (Database.num_items db);
  Printf.fprintf out "transactions %d\n" (Database.size db);
  Database.iter
    (fun txn ->
      let first = ref true in
      Itemset.iter
        (fun i ->
          if !first then first := false else output_char out ' ';
          output_string out (string_of_int i))
        txn;
      output_char out '\n')
    db

let save db path = Olar_util.Atomic_file.write path (print db)

let malformed lineno fmt =
  Printf.ksprintf (fun s -> raise (Malformed (Printf.sprintf "line %d: %s" lineno s))) fmt

let parse_header_int ~lineno ~key line =
  match String.split_on_char ' ' (String.trim line) with
  | [ k; v ] when k = key -> (
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> malformed lineno "invalid %s count %S" key v)
  | _ -> malformed lineno "expected %S header, got %S" key line

let parse_transaction ~lineno line =
  let line = String.trim line in
  if line = "" then Itemset.empty
  else begin
    let fields = String.split_on_char ' ' line in
    let items =
      List.filter_map
        (fun f ->
          if f = "" then None
          else
            match int_of_string_opt f with
            | Some i when i >= 0 -> Some i
            | _ -> malformed lineno "invalid item id %S" f)
        fields
    in
    Itemset.of_list items
  end

let parse lines =
  match lines with
  | [] -> raise (Malformed "empty input")
  | first :: rest ->
    if String.trim first <> magic then
      malformed 1 "bad magic, expected %S" magic;
    begin
      match rest with
      | items_line :: txns_line :: body ->
        let num_items = parse_header_int ~lineno:2 ~key:"items" items_line in
        let expected = parse_header_int ~lineno:3 ~key:"transactions" txns_line in
        let txns =
          List.mapi (fun k line -> parse_transaction ~lineno:(k + 4) line) body
        in
        let txns = Array.of_list txns in
        if Array.length txns <> expected then
          raise
            (Malformed
               (Printf.sprintf "expected %d transactions, found %d" expected
                  (Array.length txns)));
        (try Database.create ~num_items txns
         with Invalid_argument msg -> raise (Malformed msg))
      | _ -> raise (Malformed "truncated header")
    end

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
      parse (List.rev !lines))
