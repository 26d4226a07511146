(* Shared fixtures, brute-force oracles and qcheck generators for the
   whole test suite. Oracles are deliberately naive (full enumeration or
   full scans) so they are obviously correct on the small universes used
   in tests. *)

open Olar_data

(* ------------------------------------------------------------------ *)
(* Alcotest testables *)

let itemset = Alcotest.testable Itemset.pp Itemset.equal

let rule = Alcotest.testable Olar_core.Rule.pp Olar_core.Rule.equal

let entry =
  Alcotest.pair itemset Alcotest.int

(* ------------------------------------------------------------------ *)
(* Fixed databases *)

(* 10 transactions over 5 items; rich enough to have 3-itemsets at
   minsup 2. *)
let small_db () =
  Database.of_lists ~num_items:5
    [
      [ 0; 1; 2 ];
      [ 0; 1 ];
      [ 0; 2 ];
      [ 1; 2 ];
      [ 0; 1; 2; 3 ];
      [ 3 ];
      [ 0; 3 ];
      [ 1; 3 ];
      [ 2; 4 ];
      [ 0; 1; 2 ];
    ]

(* The paper's Table 2 example (supports in % of a 1000-transaction
   database): items A=0, B=1, C=2, D=3. *)
let table2_entries () =
  let set l = Itemset.of_list l in
  [|
    (set [ 0 ], 10);
    (set [ 1 ], 20);
    (set [ 2 ], 30);
    (set [ 3 ], 10);
    (set [ 0; 1 ], 4);
    (set [ 0; 2 ], 7);
    (set [ 1; 3 ], 6);
    (set [ 1; 2 ], 4);
    (set [ 0; 1; 2 ], 3);
  |]

let table2_lattice () =
  Olar_core.Lattice.of_entries ~db_size:1000 ~threshold:3 (table2_entries ())

(* ------------------------------------------------------------------ *)
(* Brute-force oracles *)

(* All non-empty subsets of the universe of [db]; only usable when
   [num_items db] is small. *)
let all_nonempty_itemsets db =
  let n = Database.num_items db in
  assert (n <= 16);
  let out = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let items = ref [] in
    for b = n - 1 downto 0 do
      if mask land (1 lsl b) <> 0 then items := b :: !items
    done;
    out := Itemset.of_list !items :: !out
  done;
  List.rev !out

(* Frequent itemsets by exhaustive enumeration + full scans. *)
let brute_frequent db ~minsup =
  List.filter_map
    (fun x ->
      let c = Database.support_count db x in
      if c >= minsup then Some (x, c) else None)
    (all_nonempty_itemsets db)

let sort_entries l =
  List.sort (fun (x, _) (y, _) -> Itemset.compare x y) l

(* All rules at (minsup, confidence) by brute force. *)
let brute_rules db ~minsup ~confidence =
  let frequent = brute_frequent db ~minsup in
  let support a =
    if Itemset.is_empty a then Database.size db else Database.support_count db a
  in
  Olar_baseline.Naive_rules.all_rules ~support ~frequent ~confidence

(* Essential rules by brute force: Definition 4.2 verbatim. *)
let brute_essential_rules db ~minsup ~confidence =
  Olar_baseline.Naive_rules.essential_filter (brute_rules db ~minsup ~confidence)

(* An engine holding every itemset of the database (threshold 1), so any
   query support is answerable. *)
let full_engine db =
  let entries = Array.of_list (brute_frequent db ~minsup:1) in
  Olar_core.Engine.of_lattice
    (Olar_core.Lattice.of_entries ~db_size:(Database.size db) ~threshold:1
       entries)

(* ------------------------------------------------------------------ *)
(* qcheck generators *)

(* A random database over a small universe: 4-8 items, 1-40 transactions,
   each a random subset biased toward small sizes. *)
let db_gen =
  let open QCheck2.Gen in
  let* num_items = int_range 4 8 in
  let* num_txns = int_range 1 40 in
  let txn =
    let* size = int_range 0 num_items in
    let* items = list_repeat size (int_range 0 (num_items - 1)) in
    return items
  in
  let* rows = list_repeat num_txns txn in
  return (Database.of_lists ~num_items rows)

(* A random append batch for [old_db]: 0-12 rows (empty about one time
   in five), each either a repeat of an old row or a fresh row over the
   old universe widened by up to three new item ids. *)
let delta_gen old_db =
  let open QCheck2.Gen in
  let* extra = int_range 0 3 in
  let num_items = Database.num_items old_db + extra in
  let fresh =
    let* size = int_range 0 num_items in
    list_repeat size (int_range 0 (num_items - 1))
  in
  let repeat =
    map
      (fun i -> Itemset.to_list (Database.get old_db i))
      (int_range 0 (Database.size old_db - 1))
  in
  let* rows =
    list_size
      (frequency [ (1, return 0); (4, int_range 1 12) ])
      (oneof [ fresh; repeat ])
  in
  return (Database.of_lists ~num_items rows)

let db_print db =
  Format.asprintf "db(%d items):@ %a" (Database.num_items db)
    (Format.pp_print_list Itemset.pp)
    (Database.fold (fun acc t -> t :: acc) [] db)

(* A random itemset over the universe of a database. *)
let itemset_gen ~num_items =
  let open QCheck2.Gen in
  let* size = int_range 0 (min 4 num_items) in
  let* items = list_repeat size (int_range 0 (num_items - 1)) in
  return (Itemset.of_list items)

(* A database together with a query itemset over its universe. *)
let db_and_itemset_gen =
  let open QCheck2.Gen in
  let* db = db_gen in
  let* x = itemset_gen ~num_items:(Database.num_items db) in
  return (db, x)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

(* Substring search for asserting on rendered output. *)
let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i =
    i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1))
  in
  nn = 0 || loop 0
