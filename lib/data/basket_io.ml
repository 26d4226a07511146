exception Malformed of string

let parse lines =
  let vocab = Item.Vocab.create () in
  let baskets = ref [] in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then begin
        let names = String.split_on_char ',' line in
        let items =
          List.map
            (fun name ->
              let name = String.trim name in
              if name = "" then
                raise
                  (Malformed (Printf.sprintf "line %d: empty item name" (lineno + 1)));
              Item.Vocab.intern vocab name)
            names
        in
        baskets := Itemset.of_list items :: !baskets
      end)
    lines;
  let transactions = Array.of_list (List.rev !baskets) in
  let num_items = max 1 (Item.Vocab.size vocab) in
  (vocab, Database.create ~num_items transactions)

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

let print vocab db out =
  Database.iter
    (fun txn ->
      let first = ref true in
      Itemset.iter
        (fun i ->
          let name =
            try Item.Vocab.name vocab i
            with Invalid_argument _ ->
              invalid_arg "Basket_io.print: item without a name"
          in
          if !first then first := false else output_string out ", ";
          output_string out name)
        txn;
      output_char out '\n')
    db

let save vocab db path = Olar_util.Atomic_file.write path (print vocab db)
