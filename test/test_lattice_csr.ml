(* Differential tests of the CSR lattice backend.

   Random downward-closed entry sets (brute-force mining of random
   databases) are built into a lattice; every query entry point is then
   checked against an oracle computed directly from the flat entry list,
   the packed layout is checked against its structural invariants, and
   the serializer is checked for bit-exact v2 round-trips, v1 backward
   compatibility, and clean [Malformed] errors on corrupted input. *)

open Olar_data
open Olar_core

let check = Alcotest.check
let set = Itemset.of_list
let entries_t = Alcotest.list Helpers.entry
let conf = Conf.of_float

(* ------------------------------------------------------------------ *)
(* Generators *)

(* A random database with a primary threshold, a query itemset over its
   universe and a minsup at or above the threshold. *)
let scenario_gen =
  let open QCheck2.Gen in
  let* db = Helpers.db_gen in
  let* threshold = int_range 1 4 in
  let* containing = Helpers.itemset_gen ~num_items:(Database.num_items db) in
  let* extra = int_range 0 4 in
  return (db, threshold, containing, threshold + extra)

let scenario_print (db, threshold, containing, minsup) =
  Format.asprintf "%s@ threshold=%d containing=%a minsup=%d"
    (Helpers.db_print db) threshold Itemset.pp containing minsup

let lattice_of db ~threshold =
  let entries = Array.of_list (Helpers.brute_frequent db ~minsup:threshold) in
  Lattice.of_entries ~db_size:(Database.size db) ~threshold entries

(* ------------------------------------------------------------------ *)
(* Oracles over the flat entry list *)

let strength (x, cx) (y, cy) =
  let c = Int.compare cy cx in
  if c <> 0 then c else Itemset.compare x y

let oracle_find entries ~containing ~minsup =
  List.sort strength
    (List.filter
       (fun (x, c) -> Itemset.subset containing x && c >= minsup)
       entries)

let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let oracle_support entries ~containing ~k =
  let sorted =
    List.sort strength
      (List.filter (fun (x, _) -> Itemset.subset containing x) entries)
  in
  let itemsets = take k sorted in
  let support_level =
    if List.length itemsets = k then Some (snd (List.nth itemsets (k - 1)))
    else None
  in
  (itemsets, support_level)

(* Unconstrained boundary of the itemset at [target], Definition 4.3 by
   exhaustive subset enumeration: non-empty strict subsets Y of X
   satisfying the confidence bound such that no non-empty strict subset
   of Y also satisfies it. *)
let oracle_boundary lat ~target ~confidence =
  let x = Lattice.itemset lat target in
  let sup_x = Lattice.support lat target in
  let satisfies y =
    match Lattice.support_of lat y with
    | None -> false
    | Some sup_y ->
      Conf.satisfied confidence ~union_count:sup_x ~antecedent_count:sup_y
  in
  Itemset.proper_nonempty_subsets x
  |> List.filter (fun y ->
         satisfies y
         && not (List.exists satisfies (Itemset.proper_nonempty_subsets y)))
  |> List.sort Itemset.compare

(* ------------------------------------------------------------------ *)
(* Differential properties: one per query entry point *)

let find_itemsets_csr_prop =
  QCheck2.Test.make ~name:"csr: find_itemsets matches flat oracle" ~count:250
    ~print:scenario_print scenario_gen
    (fun (db, threshold, containing, minsup) ->
      let lat = lattice_of db ~threshold in
      let entries = Helpers.brute_frequent db ~minsup:threshold in
      let got =
        Query.to_entries lat (Query.find_itemsets lat ~containing ~minsup)
      in
      got = oracle_find entries ~containing ~minsup)

let count_itemsets_csr_prop =
  QCheck2.Test.make ~name:"csr: count_itemsets matches flat oracle" ~count:250
    ~print:scenario_print scenario_gen
    (fun (db, threshold, containing, minsup) ->
      let lat = lattice_of db ~threshold in
      let entries = Helpers.brute_frequent db ~minsup:threshold in
      Query.count_itemsets lat ~containing ~minsup
      = List.length (oracle_find entries ~containing ~minsup))

let support_query_csr_prop =
  QCheck2.Test.make ~name:"csr: find_support matches flat oracle" ~count:250
    ~print:scenario_print scenario_gen
    (fun (db, threshold, containing, minsup) ->
      let lat = lattice_of db ~threshold in
      let entries = Helpers.brute_frequent db ~minsup:threshold in
      let k = 1 + (minsup mod 7) in
      let answer = Support_query.find_support lat ~containing ~k in
      let expected_itemsets, expected_level =
        oracle_support entries ~containing ~k
      in
      answer.Support_query.itemsets = expected_itemsets
      && answer.Support_query.support_level = expected_level)

let boundary_csr_prop =
  QCheck2.Test.make ~name:"csr: find_boundary matches subset oracle"
    ~count:250 ~print:scenario_print scenario_gen
    (fun (db, threshold, _containing, salt) ->
      let lat = lattice_of db ~threshold in
      let target = salt mod Lattice.num_vertices lat in
      let confidence = conf (0.2 +. (0.15 *. float_of_int (salt mod 5))) in
      let got =
        List.map (Lattice.itemset lat)
          (Boundary.find_boundary lat ~target ~confidence)
      in
      got = oracle_boundary lat ~target ~confidence)

(* ------------------------------------------------------------------ *)
(* Old-path semantics: entries round-trip *)

let entries_roundtrip_prop =
  QCheck2.Test.make ~name:"csr: entries round-trip preserves all queries"
    ~count:250 ~print:scenario_print scenario_gen
    (fun (db, threshold, containing, minsup) ->
      let lat = lattice_of db ~threshold in
      let lat' =
        Lattice.of_entries ~db_size:(Lattice.db_size lat)
          ~threshold:(Lattice.threshold lat) (Lattice.entries lat)
      in
      Lattice.entries lat = Lattice.entries lat'
      && Lattice.num_edges lat = Lattice.num_edges lat'
      && Query.find_itemsets lat ~containing ~minsup
         = Query.find_itemsets lat' ~containing ~minsup
      && (let k = 1 + (minsup mod 5) in
          Support_query.find_support lat ~containing ~k
          = Support_query.find_support lat' ~containing ~k)
      &&
      let target = minsup mod Lattice.num_vertices lat in
      Boundary.find_boundary lat ~target ~confidence:(conf 0.5)
      = Boundary.find_boundary lat' ~target ~confidence:(conf 0.5))

(* ------------------------------------------------------------------ *)
(* Append fold: Maintenance.append against a rebuild over exact counts *)

let fold_gen =
  let open QCheck2.Gen in
  let* db = Helpers.db_gen in
  let* threshold = int_range 1 4 in
  let* delta = Helpers.delta_gen db in
  return (db, threshold, delta)

let fold_print (db, threshold, delta) =
  Format.asprintf "%s@ threshold=%d@ delta %s" (Helpers.db_print db) threshold
    (Helpers.db_print delta)

(* Everything a lattice is made of, for array equality. *)
let csr_image lat =
  ( Lattice.db_size lat,
    Lattice.threshold lat,
    [
      Lattice.support_array lat;
      Lattice.item_offsets lat;
      Lattice.item_buffer lat;
      Lattice.child_offsets lat;
      Lattice.child_edges lat;
      Lattice.parent_offsets lat;
      Lattice.parent_edges lat;
    ] )

(* The arrays an append leaves alone, and so must share. *)
let unchanged_arrays lat =
  [
    Lattice.item_offsets lat;
    Lattice.item_buffer lat;
    Lattice.child_offsets lat;
    Lattice.parent_offsets lat;
    Lattice.parent_edges lat;
  ]

(* The oracle counts the delta naively, one full scan per itemset, and
   builds the expected lattice from scratch; the fold must match it on
   every array, share the unchanged ones, and report its work exactly:
   the vertices with a non-zero delta count and their distinct
   parents' rows. *)
let fold_oracle_prop =
  QCheck2.Test.make ~name:"csr: append fold = of_entries over exact counts"
    ~count:300 ~print:fold_print fold_gen
    (fun (db, threshold, delta) ->
      let lat = lattice_of db ~threshold in
      let update = Maintenance.append lat delta in
      let entries = Lattice.entries lat in
      let delta_count =
        Array.map (fun (x, _) -> Database.support_count delta x) entries
      in
      let expected =
        Lattice.of_entries
          ~db_size:(Database.size db + Database.size delta)
          ~threshold
          (Array.mapi (fun k (x, c) -> (x, c + delta_count.(k))) entries)
      in
      (* entry k is vertex k + 1 *)
      let bumped =
        List.filter
          (fun v -> delta_count.(v - 1) > 0)
          (List.init (Array.length entries) succ)
      in
      let rows =
        List.sort_uniq Int.compare
          (List.concat_map
             (fun v -> Array.to_list (Lattice.parents lat v))
             bumped)
      in
      let folded = update.Maintenance.lattice in
      csr_image folded = csr_image expected
      && List.for_all2 ( == ) (unchanged_arrays lat) (unchanged_arrays folded)
      && update.Maintenance.vertices_bumped = List.length bumped
      && update.Maintenance.rows_resorted = List.length rows)

(* ------------------------------------------------------------------ *)
(* Canonical order: counting pass vs comparison sort *)

(* Appends 0-3 random deltas, so supports (and with them the order of
   the child rows) no longer follow what the mined lattice had. *)
let order_gen =
  let open QCheck2.Gen in
  let* db = Helpers.db_gen in
  let* threshold = int_range 1 4 in
  let* folds = int_range 0 3 in
  let* deltas = list_repeat folds (Helpers.delta_gen db) in
  let* salt = int_range 0 1000 in
  return (db, threshold, deltas, salt)

let order_print (db, threshold, deltas, salt) =
  Format.asprintf "%s@ threshold=%d@ %d deltas:@ %a@ salt=%d"
    (Helpers.db_print db) threshold (List.length deltas)
    (Format.pp_print_list (fun f d -> Format.pp_print_string f (Helpers.db_print d)))
    deltas salt

let folded_lattice db ~threshold deltas =
  List.fold_left
    (fun lat delta -> (Maintenance.append lat delta).Maintenance.lattice)
    (lattice_of db ~threshold) deltas

(* Every find on [lat] from each vertex and from one non-primary
   itemset, at cuts from the threshold past every support to beyond
   [db_size], both [include_start] values: the kernel's array must be
   the reachable set sorted by [compare_strength]. Returns whether all
   agreed and how many non-empty answers each side of the crossover
   ordered. *)
let check_order lat ~salt =
  let nv = Lattice.num_vertices lat in
  let supports = Lattice.support_array lat in
  let top = Array.fold_left max 0 (Array.sub supports 1 (nv - 1)) in
  let db_size = Lattice.db_size lat in
  let threshold = Lattice.threshold lat in
  let cuts =
    List.filter (fun s -> s >= threshold)
    @@ List.sort_uniq Int.compare
      [
        threshold;
        threshold + 1;
        threshold + (salt mod (max 1 (top - threshold + 1)));
        top;
        top + 1;
        db_size;
        db_size + 1;
      ]
  in
  let ok = ref true and sorted = ref 0 and counted = ref 0 in
  let one containing start =
    List.iter
      (fun minsup ->
        List.iter
          (fun include_start ->
            let expected =
              List.filter
                (fun v ->
                  supports.(v) >= minsup
                  && Lattice.vertex_has_subset lat v containing
                  && (v <> start
                     || (include_start && not (Itemset.is_empty containing))))
                (List.init nv Fun.id)
              |> List.sort (Lattice.compare_strength lat)
              |> Array.of_list
            in
            let got = Query.find_itemsets ~include_start lat ~containing ~minsup in
            let n = Array.length got in
            if n > 0 then
              if n >= Query.crossover lat then incr counted else incr sorted;
            if got <> expected then ok := false)
          [ true; false ])
      cuts
  in
  for v = 0 to nv - 1 do
    one (Lattice.itemset lat v) v
  done;
  (* a start that is not primary: no answer at any cut *)
  let absent = Itemset.of_list [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  if Lattice.find lat absent = None then one absent (-1);
  (!ok, !sorted, !counted)

let find_order_prop =
  QCheck2.Test.make
    ~name:"csr: find_itemsets = reachable set sorted by compare_strength"
    ~count:150 ~print:order_print order_gen
    (fun (db, threshold, deltas, salt) ->
      let ok, _, _ = check_order (folded_lattice db ~threshold deltas) ~salt in
      ok)

(* The property above runs on small lattices; this one pins that both
   sides of the crossover are taken, before and after folds. *)
let test_find_order_both_sides () =
  let rows =
    List.init 60 (fun i ->
        List.filter (fun item -> (i * (item + 3)) mod (item + 2) < 2) (List.init 8 Fun.id))
  in
  let db = Database.of_lists ~num_items:8 rows in
  let delta =
    Database.of_lists ~num_items:8 [ [ 5; 6; 7 ]; [ 5; 6; 7 ]; [ 6; 7 ]; [ 7 ] ]
  in
  List.iteri
    (fun folds deltas ->
      let lat = folded_lattice db ~threshold:2 deltas in
      let ok, sorted, counted = check_order lat ~salt:folds in
      let label = Printf.sprintf "%d folds" folds in
      check Alcotest.bool (label ^ ": arrays equal") true ok;
      check Alcotest.bool (label ^ ": sorted side taken") true (sorted > 0);
      check Alcotest.bool (label ^ ": counting side taken") true (counted > 0))
    [ []; [ delta ]; [ delta; delta; delta ] ]

let test_bump_rejects () =
  let lat = Helpers.table2_lattice () in
  let a = Option.get (Lattice.find lat (set [ 0 ])) in
  let ab = Option.get (Lattice.find lat (set [ 0; 1 ])) in
  let rejects label ~db_size vertices counts =
    match Lattice.bump lat ~db_size ~vertices ~counts with
    | exception Invalid_argument msg ->
      check Alcotest.bool (label ^ ": names bump") true
        (Helpers.contains_substring msg "Lattice.bump")
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  rejects "shrinking db" ~db_size:999 [||] [||];
  rejects "length mismatch" ~db_size:1000 [| a |] [||];
  rejects "root id" ~db_size:1000 [| 0 |] [| 1 |];
  rejects "id out of range" ~db_size:1000
    [| Lattice.num_vertices lat |]
    [| 1 |];
  rejects "negative count" ~db_size:1000 [| a |] [| -1 |];
  let c = Option.get (Lattice.find lat (set [ 2 ])) in
  rejects "above db_size" ~db_size:1001 [| c |] [| 972 |];
  (* {0,1} at 4 + 7 = 11 would exceed its parent {0} at 10 *)
  rejects "not monotone" ~db_size:1000 [| ab |] [| 7 |];
  let lat', rows =
    Lattice.bump lat ~db_size:1000 ~vertices:[| ab; a; ab |]
      ~counts:[| 3; 4; 4 |]
  in
  check Alcotest.int "repeated id sums" 11 (Lattice.support lat' ab);
  check Alcotest.int "rows of {0}, {1} and the root" 3 rows;
  check Alcotest.bool "input untouched" true (Lattice.support lat ab = 4)

(* ------------------------------------------------------------------ *)
(* Structural invariants of the packed layout *)

let csr_invariants_prop =
  QCheck2.Test.make ~name:"csr: packed layout invariants" ~count:250
    ~print:scenario_print scenario_gen
    (fun (db, threshold, _, _) ->
      let lat = lattice_of db ~threshold in
      let n = Lattice.num_vertices lat in
      let e = Lattice.num_edges lat in
      let item_off = Lattice.item_offsets lat in
      let item_buf = Lattice.item_buffer lat in
      let child_off = Lattice.child_offsets lat in
      let child_buf = Lattice.child_edges lat in
      let parent_off = Lattice.parent_offsets lat in
      let parent_buf = Lattice.parent_edges lat in
      let ok = ref true in
      let assert_ ok' = if not ok' then ok := false in
      assert_ (Array.length item_off = n + 1 && Array.length child_off = n + 1);
      assert_ (item_off.(0) = 0 && item_off.(n) = e);
      assert_ (child_off.(0) = 0 && child_off.(n) = e);
      assert_ (parent_off.(0) = 0 && parent_off.(n) = e);
      (* Theorem 2.1: edges = total item slots *)
      let total_items = ref 0 in
      Lattice.iter_vertices
        (fun v -> total_items := !total_items + Lattice.cardinal lat v)
        lat;
      assert_ (!total_items = e);
      Lattice.iter_vertices
        (fun v ->
          assert_ (item_off.(v + 1) >= item_off.(v));
          for k = item_off.(v) + 1 to item_off.(v + 1) - 1 do
            assert_ (item_buf.(k) > item_buf.(k - 1))
          done;
          (* parent rows: ascending ids, one per item *)
          assert_ (parent_off.(v + 1) - parent_off.(v) = Lattice.cardinal lat v);
          for k = parent_off.(v) + 1 to parent_off.(v + 1) - 1 do
            assert_ (parent_buf.(k) > parent_buf.(k - 1))
          done;
          (* child rows: decreasing support, ties ascending id *)
          for k = child_off.(v) + 1 to child_off.(v + 1) - 1 do
            assert_ (Lattice.compare_strength lat child_buf.(k - 1) child_buf.(k) < 0)
          done;
          (* allocating accessors agree with the raw rows *)
          assert_
            (Array.to_list (Lattice.children lat v)
            = Array.to_list
                (Array.sub child_buf child_off.(v)
                   (child_off.(v + 1) - child_off.(v))));
          (* index round-trip *)
          assert_ (Lattice.find lat (Lattice.itemset lat v) = Some v);
          (* packed subset/disjoint agree with itemset algebra *)
          let x = Lattice.itemset lat v in
          assert_ (Lattice.vertex_has_subset lat v x);
          assert_ (Lattice.vertex_disjoint lat v Itemset.empty))
        lat;
      (* stats consistency *)
      let s = Lattice.stats lat in
      assert_ (s.Lattice.Stats.vertices = n && s.Lattice.Stats.edges = e);
      assert_ (s.Lattice.Stats.bytes = Lattice.estimated_bytes lat);
      let max_fanout = ref 0 and depth = ref 0 in
      Lattice.iter_vertices
        (fun v ->
          max_fanout := max !max_fanout (child_off.(v + 1) - child_off.(v));
          depth := max !depth (Lattice.cardinal lat v))
        lat;
      assert_ (s.Lattice.Stats.max_fanout = !max_fanout);
      assert_ (s.Lattice.Stats.depth = !depth);
      !ok)

(* ------------------------------------------------------------------ *)
(* Serialization: v2 round-trip, v1 compat, corruption *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_saved lat f =
  let path = Filename.temp_file "olar_csr" ".lattice" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      Serialize.save lat path;
      f path)

let serialize_roundtrip_prop =
  QCheck2.Test.make ~name:"csr: v2 serialization round-trips bit-exactly"
    ~count:200 ~print:scenario_print scenario_gen
    (fun (db, threshold, containing, minsup) ->
      let lat = lattice_of db ~threshold in
      with_saved lat (fun path ->
          let bytes1 = read_file path in
          let lat' = Serialize.load path in
          with_saved lat' (fun path' ->
              let bytes2 = read_file path' in
              bytes1 = bytes2
              && Lattice.entries lat = Lattice.entries lat'
              && Lattice.estimated_bytes lat = Lattice.estimated_bytes lat'
              && Query.find_itemsets lat ~containing ~minsup
                 = Query.find_itemsets lat' ~containing ~minsup)))

(* A lattice folded by three appends saves and loads to the same
   arrays: [of_packed] re-derives every child row from the supports, so
   a mis-sorted row would fail the load. *)
let folded_serialize_prop =
  let gen =
    let open QCheck2.Gen in
    let* db, threshold, d1 = fold_gen in
    let* d2 = Helpers.delta_gen db in
    let* d3 = Helpers.delta_gen db in
    return (db, threshold, [ d1; d2; d3 ])
  in
  QCheck2.Test.make ~name:"csr: a lattice after three appends round-trips"
    ~count:100
    ~print:(fun (db, threshold, deltas) ->
      String.concat " ++ "
        (fold_print (db, threshold, List.hd deltas)
        :: List.map Helpers.db_print (List.tl deltas)))
    gen
    (fun (db, threshold, deltas) ->
      let lat =
        List.fold_left
          (fun lat d -> (Maintenance.append lat d).Maintenance.lattice)
          (lattice_of db ~threshold) deltas
      in
      with_saved lat (fun path ->
          csr_image (Serialize.load path) = csr_image lat))

(* Generate the retired v1 format from the entries and load it. *)
let v1_lines lat =
  let entries = Lattice.entries lat in
  let entry_line (x, c) =
    String.concat " "
      (string_of_int c :: List.map string_of_int (Itemset.to_list x))
  in
  [
    "# olar adjacency lattice v1";
    Printf.sprintf "dbsize %d" (Lattice.db_size lat);
    Printf.sprintf "threshold %d" (Lattice.threshold lat);
    Printf.sprintf "itemsets %d" (Array.length entries);
  ]
  @ Array.to_list (Array.map entry_line entries)

let v1_compat_prop =
  QCheck2.Test.make ~name:"csr: v1 format still loads identically" ~count:200
    ~print:scenario_print scenario_gen
    (fun (db, threshold, containing, minsup) ->
      let lat = lattice_of db ~threshold in
      let lat' = Serialize.parse (v1_lines lat) in
      Lattice.entries lat = Lattice.entries lat'
      && Lattice.db_size lat = Lattice.db_size lat'
      && Lattice.threshold lat = Lattice.threshold lat'
      && Query.find_itemsets lat ~containing ~minsup
         = Query.find_itemsets lat' ~containing ~minsup)

(* Corrupting a valid v2 image must raise Malformed — never an array
   bounds error or a silent success. *)
let corruption_gen =
  let open QCheck2.Gen in
  let* scenario = scenario_gen in
  let* mode = int_range 0 2 in
  let* salt = int_range 0 1_000_000 in
  return (scenario, mode, salt)

let corrupt lines ~mode ~salt =
  match mode with
  | 0 ->
    (* truncate *)
    take (salt mod List.length lines) lines
  | 1 ->
    (* replace one whitespace-separated token with garbage *)
    let joined = String.concat "\n" lines in
    let fields = String.split_on_char ' ' joined in
    let victim = salt mod List.length fields in
    String.split_on_char '\n'
      (String.concat " "
         (List.mapi (fun i f -> if i = victim then "x" else f) fields))
  | _ ->
    (* drop the magic line *)
    List.tl lines

let corruption_prop =
  QCheck2.Test.make ~name:"csr: corrupted v2 input raises clean Malformed"
    ~count:250
    ~print:(fun ((s, mode, salt)) ->
      Printf.sprintf "%s mode=%d salt=%d" (scenario_print s) mode salt)
    corruption_gen
    (fun ((db, threshold, _, _), mode, salt) ->
      let lat = lattice_of db ~threshold in
      let lines =
        with_saved lat (fun path ->
            String.split_on_char '\n' (String.trim (read_file path)))
      in
      match Serialize.parse (corrupt lines ~mode ~salt) with
      | exception Serialize.Malformed _ -> true
      | exception _ -> false (* Invalid_argument etc. leak through *)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fixed fixtures and edge cases *)

let test_v1_fixture_loads () =
  (* A v1 file captured from the pre-CSR format writer (Table 2). *)
  let lines =
    [
      "# olar adjacency lattice v1";
      "dbsize 1000";
      "threshold 3";
      "itemsets 9";
      "10 0"; "20 1"; "30 2"; "10 3";
      "4 0 1"; "7 0 2"; "4 1 2"; "6 1 3";
      "3 0 1 2";
    ]
  in
  let lat = Serialize.parse lines in
  check Alcotest.int "vertices" 10 (Lattice.num_vertices lat);
  check Alcotest.int "edges" 15 (Lattice.num_edges lat);
  check (Alcotest.option Alcotest.int) "ABC support" (Some 3)
    (Lattice.support_of lat (set [ 0; 1; 2 ]));
  (* identical to building from entries directly *)
  let reference = Helpers.table2_lattice () in
  check entries_t "entries equal"
    (Array.to_list (Lattice.entries reference))
    (Array.to_list (Lattice.entries lat))

let test_root_only_lattice () =
  let lat = Lattice.of_entries ~db_size:7 ~threshold:2 [||] in
  check Alcotest.int "vertices" 1 (Lattice.num_vertices lat);
  check Alcotest.int "edges" 0 (Lattice.num_edges lat);
  let s = Lattice.stats lat in
  check Alcotest.int "depth" 0 s.Lattice.Stats.depth;
  check Alcotest.int "fanout" 0 s.Lattice.Stats.max_fanout;
  with_saved lat (fun path ->
      let lat' = Serialize.load path in
      check Alcotest.int "round-trip vertices" 1 (Lattice.num_vertices lat');
      check Alcotest.int "round-trip db_size" 7 (Lattice.db_size lat'))

let test_of_packed_rejects_inconsistent_children () =
  (* Structurally well-formed arrays whose child CSR does not match the
     itemsets: {0} and {1} both primary but the child rows swap their
     order under the root (supports 5 vs 9 demand 9 first). *)
  match
    Lattice.of_packed ~db_size:10 ~threshold:2 ~item_off:[| 0; 0; 1; 2 |]
      ~item_buf:[| 0; 1 |] ~supports:[| 10; 5; 9 |] ~child_off:[| 0; 2; 2; 2 |]
      ~child_buf:[| 1; 2 |]
  with
  | exception Invalid_argument msg ->
    check Alcotest.bool "names of_packed" true
      (Helpers.contains_substring msg "of_packed")
  | _ -> Alcotest.fail "expected Invalid_argument"

(* ------------------------------------------------------------------ *)
(* Scratch reuse *)

(* 1000 mixed queries through one Engine (shared scratch) must match
   fresh-scratch runs — guards against stale marks, stack or heap state
   leaking between queries. *)
let test_scratch_reuse_1000 () =
  let db = Helpers.small_db () in
  let entries = Array.of_list (Helpers.brute_frequent db ~minsup:1) in
  let lat =
    Lattice.of_entries ~db_size:(Database.size db) ~threshold:1 entries
  in
  let engine = Engine.of_lattice lat in
  let scratch = Scratch.create lat in
  for i = 0 to 999 do
    let containing = if i mod 3 = 0 then Itemset.empty else set [ i mod 5 ] in
    let minsup = 1 + (i mod 4) in
    let confidence = conf (0.3 +. (0.1 *. float_of_int (i mod 6))) in
    match i mod 4 with
    | 0 ->
      check entries_t
        (Printf.sprintf "find_itemsets %d" i)
        (Query.to_entries lat (Query.find_itemsets lat ~containing ~minsup))
        (Query.to_entries lat
           (Query.find_itemsets ~scratch lat ~containing ~minsup))
    | 1 ->
      let frac = float_of_int minsup /. float_of_int (Database.size db) in
      check Alcotest.int
        (Printf.sprintf "count_itemsets %d" i)
        (Query.count_itemsets lat ~containing
           ~minsup:(Engine.count_of_support engine frac))
        (Engine.count_itemsets engine ~containing ~minsup:frac)
    | 2 ->
      let k = 1 + (i mod 7) in
      let fresh = Support_query.find_support lat ~containing ~k in
      let shared = Support_query.find_support ~scratch lat ~containing ~k in
      check entries_t
        (Printf.sprintf "find_support %d" i)
        fresh.Support_query.itemsets shared.Support_query.itemsets;
      check
        (Alcotest.option Alcotest.int)
        (Printf.sprintf "support_level %d" i)
        fresh.Support_query.support_level shared.Support_query.support_level
    | _ ->
      let target = i mod Lattice.num_vertices lat in
      check
        (Alcotest.list Alcotest.int)
        (Printf.sprintf "find_boundary %d" i)
        (Boundary.find_boundary lat ~target ~confidence)
        (Boundary.find_boundary ~scratch lat ~target ~confidence)
  done

(* A nested query while the scratch is busy must fall back to a fresh
   scratch instead of corrupting the outer walk. *)
let test_scratch_nested_use () =
  let lat = Helpers.table2_lattice () in
  let scratch = Scratch.create lat in
  let expected = Query.find_itemsets lat ~containing:Itemset.empty ~minsup:4 in
  Scratch.use ~scratch lat (fun s ->
      check Alcotest.bool "outer holds the scratch" true (s == scratch);
      let nested =
        Query.find_itemsets ~scratch lat ~containing:Itemset.empty ~minsup:4
      in
      check (Alcotest.array Alcotest.int) "nested query result" expected nested);
  (* the scratch is released and reusable afterwards *)
  let again =
    Query.find_itemsets ~scratch lat ~containing:Itemset.empty ~minsup:4
  in
  check (Alcotest.array Alcotest.int) "released" expected again

(* Epoch wraparound: a reset at [max_int] must wipe the marks and
   restart the epoch at 1 rather than wrapping to [min_int] and
   marching back up through values still sitting in [marks]. The epoch
   field is exposed precisely so this edge is testable without issuing
   max_int queries. *)
let test_scratch_epoch_wrap () =
  let lat = Helpers.table2_lattice () in
  let scratch = Scratch.create lat in
  let expected = Query.find_itemsets lat ~containing:Itemset.empty ~minsup:4 in
  (* drive the epoch to the edge: the next reset lands exactly on max_int *)
  scratch.Scratch.epoch <- max_int - 1;
  let at_edge =
    Query.find_itemsets ~scratch lat ~containing:Itemset.empty ~minsup:4
  in
  check (Alcotest.array Alcotest.int) "query at epoch = max_int" expected at_edge;
  check Alcotest.int "epoch reached max_int" max_int scratch.Scratch.epoch;
  check Alcotest.bool "marks carry the max_int stamp" true
    (Array.exists (fun m -> m = max_int) scratch.Scratch.marks);
  (* the wrapping reset: marks wiped, epoch restarted, answers exact *)
  let after =
    Query.find_itemsets ~scratch lat ~containing:Itemset.empty ~minsup:4
  in
  check (Alcotest.array Alcotest.int) "query after the wrap" expected after;
  check Alcotest.int "epoch restarted at 1" 1 scratch.Scratch.epoch;
  check Alcotest.bool "no stale max_int marks survive" false
    (Array.exists (fun m -> m = max_int) scratch.Scratch.marks)

(* A scratch created for one lattice is silently bypassed on another. *)
let test_scratch_wrong_lattice () =
  let lat = Helpers.table2_lattice () in
  let other = Helpers.table2_lattice () in
  let scratch = Scratch.create other in
  check (Alcotest.array Alcotest.int) "wrong-lattice scratch is safe"
    (Query.find_itemsets lat ~containing:Itemset.empty ~minsup:4)
    (Query.find_itemsets ~scratch lat ~containing:Itemset.empty ~minsup:4)

(* The engine's telemetry hook must cost nothing when disabled: over a
   1000-query loop, [Engine.count_itemsets] with the default (disabled)
   context allocates the same bytes as the raw kernel with a reused
   scratch — no closures or option boxes on the hot path (the [None]
   dispatch arm in engine.ml is the bare uninstrumented call). *)
let test_disabled_obs_zero_alloc () =
  let lat = Helpers.table2_lattice () in
  let engine = Engine.of_lattice lat in
  let scratch = Scratch.create lat in
  let frac = 4.0 /. float_of_int (Lattice.db_size lat) in
  let engine_query () = ignore (Engine.count_itemsets engine ~minsup:frac) in
  let raw_query () =
    ignore
      (Query.count_itemsets ~scratch lat ~containing:Itemset.empty
         ~minsup:(Engine.count_of_support engine frac))
  in
  let measure f =
    f ();
    (* warm-up: scratch growth doesn't count. Then start on an empty
       minor heap: the loop allocates far less than the minor heap
       holds, so no collection falls inside it. [Gc.allocated_bytes]
       mis-accounts across a minor collection (it can jump by most of
       a minor heap), so whichever loop crossed one — decided by what
       earlier tests left on the heap — would read as allocating. *)
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    for _ = 1 to 1000 do
      f ()
    done;
    Gc.allocated_bytes () -. before
  in
  let raw_bytes = measure raw_query in
  let engine_bytes = measure engine_query in
  (* Any per-query boxing on the dispatch would cost >= 24 bytes/query
     = 24k over the loop; allow a few words of measurement noise. *)
  if engine_bytes > raw_bytes +. 512.0 then
    Alcotest.failf
      "disabled-obs engine allocated %.0f bytes over 1000 queries vs %.0f raw"
      engine_bytes raw_bytes

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "core.csr",
      [
        case "v1 fixture loads" test_v1_fixture_loads;
        case "root-only lattice" test_root_only_lattice;
        case "of_packed rejects bad children"
          test_of_packed_rejects_inconsistent_children;
        case "scratch reuse over 1000 queries" test_scratch_reuse_1000;
        case "disabled obs allocates nothing" test_disabled_obs_zero_alloc;
        case "scratch nested use" test_scratch_nested_use;
        case "scratch epoch wraparound" test_scratch_epoch_wrap;
        case "scratch wrong lattice" test_scratch_wrong_lattice;
        case "bump rejects bad counts" test_bump_rejects;
        case "find order takes both sides" test_find_order_both_sides;
      ] );
    Helpers.qsuite "core.csr.diff"
      [
        find_itemsets_csr_prop;
        count_itemsets_csr_prop;
        support_query_csr_prop;
        boundary_csr_prop;
        entries_roundtrip_prop;
        csr_invariants_prop;
        fold_oracle_prop;
        find_order_prop;
      ];
    Helpers.qsuite "core.csr.serialize"
      [
        serialize_roundtrip_prop;
        v1_compat_prop;
        corruption_prop;
        folded_serialize_prop;
      ];
  ]
