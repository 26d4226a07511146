open Olar_data

exception Malformed of string

let magic_v2 = "# olar adjacency lattice v2"
let magic_v1 = "# olar adjacency lattice v1"
let magic = magic_v2

let malformed lineno fmt =
  Printf.ksprintf
    (fun s -> raise (Malformed (Printf.sprintf "line %d: %s" lineno s)))
    fmt

(* ------------------------------------------------------------------ *)
(* v2: the CSR image itself. Load revalidates every invariant through
   Lattice.of_packed but skips re-sorting and re-deriving the child
   adjacency from scratch. *)

let print_int_line out key a =
  output_string out key;
  Array.iter
    (fun x ->
      output_char out ' ';
      output_string out (string_of_int x))
    a;
  output_char out '\n'

let print lattice out =
  Printf.fprintf out "%s\n" magic_v2;
  Printf.fprintf out "dbsize %d\n" (Lattice.db_size lattice);
  Printf.fprintf out "threshold %d\n" (Lattice.threshold lattice);
  Printf.fprintf out "vertices %d\n" (Lattice.num_vertices lattice);
  Printf.fprintf out "edges %d\n" (Lattice.num_edges lattice);
  print_int_line out "itemoff" (Lattice.item_offsets lattice);
  print_int_line out "itembuf" (Lattice.item_buffer lattice);
  print_int_line out "supports" (Lattice.support_array lattice);
  print_int_line out "childoff" (Lattice.child_offsets lattice);
  print_int_line out "childbuf" (Lattice.child_edges lattice)

let save lattice path = Olar_util.Atomic_file.write path (print lattice)

let header_int ~lineno ~key line =
  match String.split_on_char ' ' (String.trim line) with
  | [ k; v ] when k = key -> (
    match int_of_string_opt v with
    | Some n when n >= 0 -> n
    | _ -> malformed lineno "invalid %s value %S" key v)
  | _ -> malformed lineno "expected %S header, got %S" key line

(* "key i0 i1 ..." with exactly [expect] integers. *)
let int_line ~lineno ~key ~expect line =
  let fields =
    List.filter (fun f -> f <> "") (String.split_on_char ' ' (String.trim line))
  in
  match fields with
  | k :: rest when k = key ->
    let n = List.length rest in
    if n <> expect then
      malformed lineno "%s: expected %d values, found %d" key expect n;
    let a = Array.make expect 0 in
    List.iteri
      (fun i f ->
        match int_of_string_opt f with
        | Some x -> a.(i) <- x
        | None -> malformed lineno "%s: invalid value %S" key f)
      rest;
    a
  | _ -> malformed lineno "expected %S row, got %S" key line

let parse_v2 lines =
  match lines with
  | [ dbsize_line; threshold_line; vertices_line; edges_line; itemoff_line;
      itembuf_line; supports_line; childoff_line; childbuf_line ] ->
    let db_size = header_int ~lineno:2 ~key:"dbsize" dbsize_line in
    let threshold = header_int ~lineno:3 ~key:"threshold" threshold_line in
    let n = header_int ~lineno:4 ~key:"vertices" vertices_line in
    let e = header_int ~lineno:5 ~key:"edges" edges_line in
    if n < 1 then malformed 4 "vertices must be at least 1";
    let item_off = int_line ~lineno:6 ~key:"itemoff" ~expect:(n + 1) itemoff_line in
    let item_buf = int_line ~lineno:7 ~key:"itembuf" ~expect:e itembuf_line in
    let supports = int_line ~lineno:8 ~key:"supports" ~expect:n supports_line in
    let child_off =
      int_line ~lineno:9 ~key:"childoff" ~expect:(n + 1) childoff_line
    in
    let child_buf =
      int_line ~lineno:10 ~key:"childbuf" ~expect:e childbuf_line
    in
    (try
       Lattice.of_packed ~db_size ~threshold ~item_off ~item_buf ~supports
         ~child_off ~child_buf
     with Invalid_argument msg -> raise (Malformed msg))
  | _ -> raise (Malformed "v2: expected exactly 9 lines after the magic")

(* ------------------------------------------------------------------ *)
(* v1 (backward compatibility): one "<support> <item...>" line per
   primary itemset; the lattice is rebuilt through of_entries. *)

let entry_of_line ~lineno line =
  let fields =
    List.filter (fun f -> f <> "") (String.split_on_char ' ' (String.trim line))
  in
  match fields with
  | [] -> malformed lineno "empty itemset line"
  | count :: items -> (
    match int_of_string_opt count with
    | None -> malformed lineno "invalid support %S" count
    | Some c ->
      let items =
        List.map
          (fun f ->
            match int_of_string_opt f with
            | Some i when i >= 0 -> i
            | _ -> malformed lineno "invalid item %S" f)
          items
      in
      if items = [] then malformed lineno "itemset with no items";
      (Itemset.of_list items, c))

let parse_v1 lines =
  match lines with
  | dbsize_line :: threshold_line :: count_line :: body ->
    let db_size = header_int ~lineno:2 ~key:"dbsize" dbsize_line in
    let threshold = header_int ~lineno:3 ~key:"threshold" threshold_line in
    let expected = header_int ~lineno:4 ~key:"itemsets" count_line in
    let entries =
      List.mapi (fun k line -> entry_of_line ~lineno:(k + 5) line) body
    in
    if List.length entries <> expected then
      raise
        (Malformed
           (Printf.sprintf "expected %d itemsets, found %d" expected
              (List.length entries)));
    (try Lattice.of_entries ~db_size ~threshold (Array.of_list entries)
     with Invalid_argument msg -> raise (Malformed msg))
  | _ -> raise (Malformed "truncated header")

let parse lines =
  match lines with
  | magic_line :: rest ->
    let m = String.trim magic_line in
    if m = magic_v2 then parse_v2 rest
    else if m = magic_v1 then parse_v1 rest
    else malformed 1 "bad magic, expected %S or %S" magic_v2 magic_v1
  | [] -> raise (Malformed "truncated header")

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
