(* Tests for olar.mining: Trie, Candidate, Frequent, the level-wise
   miners (Apriori, DHP) against brute-force oracles, and the
   primary-threshold search. *)

open Olar_data
open Olar_mining

let check = Alcotest.check
let set = Itemset.of_list
let itemset = Helpers.itemset
let entries = Alcotest.list Helpers.entry

(* ------------------------------------------------------------------ *)
(* Trie *)

let test_trie_insert_count () =
  let t = Trie.create ~depth:2 in
  check Alcotest.int "depth" 2 (Trie.depth t);
  Trie.insert t (set [ 0; 1 ]);
  Trie.insert t (set [ 0; 2 ]);
  Trie.insert t (set [ 1; 2 ]);
  Trie.insert t (set [ 0; 1 ]);
  (* duplicate *)
  check Alcotest.int "size dedups" 3 (Trie.size t);
  Trie.count_transaction t (set [ 0; 1; 2 ]);
  Trie.count_transaction t (set [ 0; 1 ]);
  Trie.count_transaction t (set [ 2 ]);
  check (Alcotest.option Alcotest.int) "count 01" (Some 2) (Trie.count t (set [ 0; 1 ]));
  check (Alcotest.option Alcotest.int) "count 02" (Some 1) (Trie.count t (set [ 0; 2 ]));
  check (Alcotest.option Alcotest.int) "count 12" (Some 1) (Trie.count t (set [ 1; 2 ]));
  check (Alcotest.option Alcotest.int) "not inserted" None (Trie.count t (set [ 0; 3 ]))

let test_trie_sorted_output () =
  let t = Trie.create ~depth:2 in
  List.iter (Trie.insert t) [ set [ 2; 3 ]; set [ 0; 9 ]; set [ 0; 1 ] ];
  let out = Array.to_list (Trie.to_sorted_array t) in
  check entries "lex order"
    [ (set [ 0; 1 ], 0); (set [ 0; 9 ], 0); (set [ 2; 3 ], 0) ]
    out

let test_trie_wrong_arity () =
  let t = Trie.create ~depth:2 in
  Alcotest.check_raises "insert arity" (Invalid_argument "Trie.insert: wrong arity")
    (fun () -> Trie.insert t (set [ 1 ]));
  Alcotest.check_raises "create depth 0" (Invalid_argument "Trie.create")
    (fun () -> ignore (Trie.create ~depth:0))

let test_trie_short_transaction () =
  let t = Trie.create ~depth:3 in
  Trie.insert t (set [ 0; 1; 2 ]);
  Trie.count_transaction t (set [ 0; 1 ]);
  (* too short to contain any 3-candidate *)
  check (Alcotest.option Alcotest.int) "untouched" (Some 0) (Trie.count t (set [ 0; 1; 2 ]))

let trie_vs_scan_prop =
  QCheck2.Test.make ~name:"trie: batch counting equals subset scans" ~count:100
    ~print:Helpers.db_print Helpers.db_gen
    (fun db ->
      (* Candidates: all 2-itemsets over the universe. *)
      let n = Database.num_items db in
      let t = Trie.create ~depth:2 in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          Trie.insert t (set [ a; b ])
        done
      done;
      Database.iter (Trie.count_transaction t) db;
      Array.for_all
        (fun (x, c) -> c = Database.support_count db x)
        (Trie.to_sorted_array t))

let test_trie_insert_after_count () =
  let t = Trie.create ~depth:2 in
  Trie.insert t (set [ 0; 1 ]);
  Trie.count_transaction t (set [ 0; 1 ]);
  Alcotest.check_raises "frozen" (Invalid_argument "Trie.insert: after counting")
    (fun () -> Trie.insert t (set [ 0; 2 ]));
  check (Alcotest.option Alcotest.int) "count kept" (Some 1) (Trie.count t (set [ 0; 1 ]))

(* A sparse counting case over a universe of up to 300 items: candidates
   of one depth (1-5) drawn at random and from the transactions' own
   items, inserted out of order with duplicates. Transactions hold at
   most 8 items, so the root row of a few hundred candidates is far
   longer than any transaction suffix and takes the binary-search
   branch; transactions shorter than the depth occur too. *)
let sparse_counting_gen ~depths =
  let open QCheck2.Gen in
  let* universe = int_range 1 300 in
  let* depth = depths in
  let item = int_range 0 (universe - 1) in
  let* rows = list_size (int_range 0 40) (list_size (int_range 0 8) item) in
  let* random = list_size (int_range 0 300) (list_repeat depth item) in
  let* from_rows = flatten_l (List.map shuffle_l rows) in
  let take_depth l = List.filteri (fun i _ -> i < depth) (List.sort_uniq compare l) in
  let cands =
    List.filter
      (fun x -> Itemset.cardinal x = depth)
      (List.map Itemset.of_list (random @ List.map take_depth from_rows))
  in
  let* again = list_size (int_range 0 20) (int_range 0 (max 0 (List.length cands - 1))) in
  let dups = List.filteri (fun i _ -> List.mem i again) cands in
  let* inserts = shuffle_l (cands @ dups) in
  let* probe = list_repeat depth item in
  return
    (Database.of_lists ~num_items:universe rows, depth, inserts, Itemset.of_list probe)

let print_counting_case (db, depth, inserts, _) =
  Printf.sprintf "depth %d, %d inserts, %s" depth (List.length inserts)
    (Helpers.db_print db)

let distinct_sorted inserts =
  List.sort_uniq Itemset.compare_lex inserts

let trie_sparse_prop =
  QCheck2.Test.make ~name:"trie: sparse candidates of depth 1-5 equal support counts"
    ~count:150 ~print:print_counting_case
    (sparse_counting_gen ~depths:(QCheck2.Gen.int_range 1 5))
    (fun (db, depth, inserts, probe) ->
      let t = Trie.create ~depth in
      List.iter (Trie.insert t) inserts;
      let distinct = distinct_sorted inserts in
      Trie.size t = List.length distinct
      && begin
        Database.iter (Trie.count_transaction t) db;
        Array.to_list (Trie.to_sorted_array t)
        = List.map (fun x -> (x, Database.support_count db x)) distinct
        && List.for_all
             (fun x -> Trie.count t x = Some (Database.support_count db x))
             distinct
        && Trie.count t probe
           = (if List.exists (Itemset.equal probe) distinct then
                Some (Database.support_count db probe)
              else None)
      end)

(* Level 2 through the pair triangle (the universe is small enough that
   it always fits) equals a depth-2 trie over the same candidates, with
   the transactions counted in one slice and in two. *)
let pair_triangle_prop =
  QCheck2.Test.make ~name:"pair triangle: equals the trie at k = 2, domains 1 and 2"
    ~count:150 ~print:print_counting_case
    (sparse_counting_gen ~depths:(QCheck2.Gen.return 2))
    (fun (db, _, inserts, _) ->
      let candidates = Array.of_list (distinct_sorted inserts) in
      let txns = Array.init (Database.size db) (Database.get db) in
      let trie = Trie.create ~depth:2 in
      Array.iter (Trie.insert trie) candidates;
      Array.iter (Trie.count_transaction trie) txns;
      let expected = Trie.to_sorted_array trie in
      let by domains =
        Levelwise.count
          { Levelwise.trim = false; hash = Levelwise.No_hash;
            counting = Levelwise.Use_trie; domains }
          ~k:2 txns candidates
      in
      Option.is_some (Pair_triangle.create candidates)
      && by 1 = expected && by 2 = expected)

let test_pair_triangle_fallback () =
  (* 400 disjoint pairs rank 800 items: a 319,600-cell triangle for 400
     candidates is declined, and level 2 counts through the trie *)
  let candidates = Array.init 400 (fun i -> set [ 2 * i; (2 * i) + 1 ]) in
  check Alcotest.bool "declined" true (Pair_triangle.create candidates = None);
  let txns = [| set [ 0; 1; 2 ]; set [ 2; 3 ]; set [ 798; 799 ]; set [ 5 ] |] in
  let config =
    { Levelwise.trim = false; hash = Levelwise.No_hash;
      counting = Levelwise.Use_trie; domains = 1 }
  in
  let counted = Levelwise.count config ~k:2 txns candidates in
  check Alcotest.int "all candidates" 400 (Array.length counted);
  check entries "counts"
    [ (set [ 0; 1 ], 1); (set [ 2; 3 ], 1); (set [ 798; 799 ], 1) ]
    (List.filter (fun (_, c) -> c > 0) (Array.to_list counted));
  Alcotest.check_raises "arity" (Invalid_argument "Pair_triangle.create")
    (fun () -> ignore (Pair_triangle.create [| set [ 0; 1; 2 ] |]))

(* ------------------------------------------------------------------ *)
(* Candidate *)

let test_candidate_pairs () =
  let out = Candidate.pairs_of_items [| 1; 4; 6 |] in
  check (Alcotest.list itemset) "pairs"
    [ set [ 1; 4 ]; set [ 1; 6 ]; set [ 4; 6 ] ]
    (Array.to_list out);
  Alcotest.check_raises "unsorted" (Invalid_argument "Candidate.pairs_of_items")
    (fun () -> ignore (Candidate.pairs_of_items [| 2; 1 |]))

let test_candidate_join_prune () =
  (* Classic example: frequent 2-itemsets {0,1} {0,2} {1,2} {1,3} join to
     3-candidates {0,1,2} (kept: all subsets frequent) and {1,2,3}
     (pruned: {2,3} infrequent). *)
  let frequent = [| set [ 0; 1 ]; set [ 0; 2 ]; set [ 1; 2 ]; set [ 1; 3 ] |] in
  let members = List.map (fun x -> Itemset.to_string x) (Array.to_list frequent) in
  let is_frequent x = List.mem (Itemset.to_string x) members in
  let out = Candidate.generate ~frequent ~is_frequent in
  check (Alcotest.list itemset) "join+prune" [ set [ 0; 1; 2 ] ] (Array.to_list out)

let test_candidate_no_join () =
  (* No pair shares a (k-1)-prefix: no candidates. *)
  let frequent = [| set [ 0; 1 ]; set [ 2; 3 ] |] in
  let out = Candidate.generate ~frequent ~is_frequent:(fun _ -> true) in
  check Alcotest.int "empty" 0 (Array.length out)

let test_candidate_validation () =
  Alcotest.check_raises "empty level"
    (Invalid_argument "Candidate.generate: empty level") (fun () ->
      ignore (Candidate.generate ~frequent:[||] ~is_frequent:(fun _ -> true)));
  Alcotest.check_raises "mixed arity"
    (Invalid_argument "Candidate.generate: mixed arity") (fun () ->
      ignore
        (Candidate.generate
           ~frequent:[| set [ 0 ]; set [ 0; 1 ] |]
           ~is_frequent:(fun _ -> true)));
  Alcotest.check_raises "not sorted"
    (Invalid_argument "Candidate.generate: not sorted") (fun () ->
      ignore
        (Candidate.generate
           ~frequent:[| set [ 1; 2 ]; set [ 0; 1 ] |]
           ~is_frequent:(fun _ -> true)))

(* Superset completeness: every frequent (k+1)-itemset appears among the
   candidates generated from the frequent k-itemsets. *)
let candidate_complete_prop =
  QCheck2.Test.make ~name:"candidate: generation is complete" ~count:100
    ~print:Helpers.db_print Helpers.db_gen
    (fun db ->
      let minsup = 2 in
      let frequent = Helpers.brute_frequent db ~minsup in
      let by_level k =
        List.sort Itemset.compare_lex
          (List.filter_map
             (fun (x, _) -> if Itemset.cardinal x = k then Some x else None)
             frequent)
      in
      let ok = ref true in
      let max_k = List.fold_left (fun m (x, _) -> max m (Itemset.cardinal x)) 0 frequent in
      for k = 2 to max_k - 1 do
        let level = Array.of_list (by_level k) in
        if Array.length level > 0 then begin
          let member = Itemset.Table.create 16 in
          Array.iter (fun x -> Itemset.Table.replace member x ()) level;
          let cands =
            Candidate.generate ~frequent:level ~is_frequent:(Itemset.Table.mem member)
          in
          let cand_set = Itemset.Table.create 16 in
          Array.iter (fun x -> Itemset.Table.replace cand_set x ()) cands;
          List.iter
            (fun x -> if not (Itemset.Table.mem cand_set x) then ok := false)
            (by_level (k + 1))
        end
        else if by_level (k + 1) <> [] then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Frequent *)

let mk_frequent () =
  Frequent.v ~db_size:10 ~threshold:2
    ~levels:
      [
        [| (set [ 0 ], 6); (set [ 1 ], 5); (set [ 2 ], 3) |];
        [| (set [ 0; 1 ], 4); (set [ 0; 2 ], 2) |];
      ]
    ~complete:true ~completed_levels:2

let test_frequent_accessors () =
  let f = mk_frequent () in
  check Alcotest.int "total" 5 (Frequent.total f);
  check Alcotest.int "max_level" 2 (Frequent.max_level f);
  check Alcotest.int "db_size" 10 (Frequent.db_size f);
  check Alcotest.int "threshold" 2 (Frequent.threshold f);
  check Alcotest.bool "complete" true (Frequent.complete f);
  check (Alcotest.option Alcotest.int) "count" (Some 4) (Frequent.count f (set [ 0; 1 ]));
  check (Alcotest.option Alcotest.int) "missing" None (Frequent.count f (set [ 1; 2 ]));
  check Alcotest.bool "mem" true (Frequent.mem f (set [ 2 ]));
  check Alcotest.int "level 1" 3 (Array.length (Frequent.level f 1));
  check Alcotest.int "level 0 empty" 0 (Array.length (Frequent.level f 0));
  check Alcotest.int "level 3 empty" 0 (Array.length (Frequent.level f 3));
  check Alcotest.int "to_list order" 5 (List.length (Frequent.to_list f))

let test_frequent_validation () =
  let bad_sort () =
    Frequent.v ~db_size:10 ~threshold:2
      ~levels:[ [| (set [ 1 ], 5); (set [ 0 ], 6) |] ]
      ~complete:true ~completed_levels:1
  in
  Alcotest.check_raises "not sorted" (Invalid_argument "Frequent.v: level not sorted")
    (fun () -> ignore (bad_sort ()));
  let bad_level () =
    Frequent.v ~db_size:10 ~threshold:2
      ~levels:[ [| (set [ 0; 1 ], 5) |] ]
      ~complete:true ~completed_levels:1
  in
  Alcotest.check_raises "wrong level" (Invalid_argument "Frequent.v: wrong level")
    (fun () -> ignore (bad_level ()));
  let below () =
    Frequent.v ~db_size:10 ~threshold:5
      ~levels:[ [| (set [ 0 ], 3) |] ]
      ~complete:true ~completed_levels:1
  in
  Alcotest.check_raises "below threshold"
    (Invalid_argument "Frequent.v: count below threshold") (fun () ->
      ignore (below ()))

let test_frequent_restrict () =
  let f = mk_frequent () in
  let r = Frequent.restrict f ~threshold:4 in
  check Alcotest.int "threshold" 4 (Frequent.threshold r);
  check Alcotest.int "total" 3 (Frequent.total r);
  check Alcotest.bool "kept" true (Frequent.mem r (set [ 0; 1 ]));
  check Alcotest.bool "dropped" false (Frequent.mem r (set [ 2 ]));
  (* restricting to 5 leaves level 2 empty: trailing levels trimmed *)
  let r5 = Frequent.restrict f ~threshold:5 in
  check Alcotest.int "max_level trimmed" 1 (Frequent.max_level r5);
  Alcotest.check_raises "lower threshold" (Invalid_argument "Frequent.restrict")
    (fun () -> ignore (Frequent.restrict f ~threshold:1))

(* ------------------------------------------------------------------ *)
(* Miners vs brute force *)

let sorted_frequent f = Helpers.sort_entries (Frequent.to_list f)

let test_apriori_small_db () =
  let db = Helpers.small_db () in
  let f = Apriori.mine db ~minsup:2 in
  check entries "matches brute force"
    (Helpers.sort_entries (Helpers.brute_frequent db ~minsup:2))
    (sorted_frequent f);
  check Alcotest.bool "complete" true (Frequent.complete f)

let test_apriori_minsup_one () =
  let db = Database.of_lists ~num_items:3 [ [ 0; 1 ]; [ 1; 2 ] ] in
  let f = Apriori.mine db ~minsup:1 in
  check entries "all transaction subsets"
    (Helpers.sort_entries (Helpers.brute_frequent db ~minsup:1))
    (sorted_frequent f)

let test_apriori_nothing_frequent () =
  let db = Database.of_lists ~num_items:3 [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let f = Apriori.mine db ~minsup:2 in
  check Alcotest.int "empty" 0 (Frequent.total f);
  check Alcotest.bool "complete" true (Frequent.complete f)

(* More counting domains than transactions — including zero
   transactions — must clamp to the slices that exist, not crash or
   spawn idle domains that corrupt counts. Regression guard for callers
   that default [~domains] to the machine width on tiny databases. *)
let test_domains_exceed_transactions () =
  let empty = Database.of_lists ~num_items:4 [] in
  let f0 = Apriori.mine ~domains:8 empty ~minsup:1 in
  check Alcotest.int "empty db mines nothing" 0 (Frequent.total f0);
  check Alcotest.bool "and is complete" true (Frequent.complete f0);
  let one = Database.of_lists ~num_items:4 [ [ 0; 2 ] ] in
  check entries "1-txn db, 8 domains = serial"
    (sorted_frequent (Apriori.mine one ~minsup:1))
    (sorted_frequent (Apriori.mine ~domains:8 one ~minsup:1));
  (* the full preprocessing surface under the same imbalance *)
  let engine =
    Olar_core.Engine.at_threshold ~domains:8 one ~primary_support:1.0
  in
  check Alcotest.int "engine over the 1-txn db answers" 3
    (Olar_core.Engine.count_itemsets engine ~minsup:1.0)

let test_apriori_validation () =
  let db = Helpers.small_db () in
  Alcotest.check_raises "minsup 0" (Invalid_argument "Levelwise.mine: minsup")
    (fun () -> ignore (Apriori.mine db ~minsup:0))

let test_apriori_stats () =
  let db = Helpers.small_db () in
  let stats = Stats.create () in
  let f = Apriori.mine ~stats db ~minsup:2 in
  let passes = Olar_util.Timer.Counter.value stats.Stats.passes in
  check Alcotest.bool "passes = levels + 1 (last empty level)" true
    (passes = Frequent.max_level f + 1 || passes = Frequent.max_level f);
  check Alcotest.int "frequent counter" (Frequent.total f)
    (Olar_util.Timer.Counter.value stats.Stats.frequent);
  check Alcotest.int "no hash pruning in apriori" 0
    (Olar_util.Timer.Counter.value stats.Stats.hash_pruned)

let test_apriori_cap () =
  let db = Helpers.small_db () in
  let full = Apriori.mine db ~minsup:2 in
  let capped = Apriori.mine db ~cap:2 ~minsup:2 in
  check Alcotest.bool "flagged incomplete" false (Frequent.complete capped);
  check Alcotest.bool "exceeds cap when cut" true (Frequent.total capped > 2);
  check Alcotest.bool "subset of full" true
    (List.for_all
       (fun (x, c) -> Frequent.count full x = Some c)
       (Frequent.to_list capped));
  (* completed levels of a capped run are exhaustive *)
  let k0 = Frequent.completed_levels capped in
  for k = 1 to k0 do
    check Alcotest.int
      (Printf.sprintf "level %d exhaustive" k)
      (Array.length (Frequent.level full k))
      (Array.length (Frequent.level capped k))
  done

let test_apriori_max_level () =
  let db = Helpers.small_db () in
  let f = Apriori.mine db ~max_level:1 ~minsup:2 in
  check Alcotest.int "only level 1" 1 (Frequent.max_level f);
  check Alcotest.bool "incomplete" false (Frequent.complete f)

let test_apriori_seed_reuse () =
  let db = Helpers.small_db () in
  let seed = Apriori.mine db ~minsup:2 in
  let reused = Apriori.mine db ~seed ~minsup:3 in
  let fresh = Apriori.mine db ~minsup:3 in
  check entries "seeded equals fresh" (sorted_frequent fresh) (sorted_frequent reused);
  check Alcotest.bool "complete" true (Frequent.complete reused);
  (* reuse must not re-count: 0 passes when the seed is complete *)
  let stats = Stats.create () in
  let _ = Apriori.mine ~stats db ~seed ~minsup:3 in
  check Alcotest.int "no passes with complete seed" 0
    (Olar_util.Timer.Counter.value stats.Stats.passes)

let test_apriori_seed_partial () =
  let db = Helpers.small_db () in
  (* Partial seed: only level 1 counted. *)
  let seed = Apriori.mine db ~max_level:1 ~minsup:2 in
  let reused = Apriori.mine db ~seed ~minsup:2 in
  let fresh = Apriori.mine db ~minsup:2 in
  check entries "partial seed completes correctly" (sorted_frequent fresh)
    (sorted_frequent reused)

let test_apriori_seed_validation () =
  let db = Helpers.small_db () in
  let seed = Apriori.mine db ~minsup:3 in
  Alcotest.check_raises "seed above minsup"
    (Invalid_argument "Levelwise.mine: seed threshold above minsup") (fun () ->
      ignore (Apriori.mine db ~seed ~minsup:2))

let test_dhp_matches_apriori () =
  let db = Helpers.small_db () in
  let a = Apriori.mine db ~minsup:2 in
  let d = Dhp.mine db ~minsup:2 in
  check entries "same result" (sorted_frequent a) (sorted_frequent d)

let test_dhp_small_buckets () =
  (* Heavy hash collisions (4 buckets) must never lose itemsets: the
     filter only discards candidates whose bucket is globally light. *)
  let db = Helpers.small_db () in
  let d = Dhp.mine ~buckets:4 db ~minsup:2 in
  check entries "collision-heavy table still exact"
    (Helpers.sort_entries (Helpers.brute_frequent db ~minsup:2))
    (sorted_frequent d)

let test_dhp_hash_all_levels () =
  let db = Helpers.small_db () in
  let d = Dhp.mine ~hash_all_levels:true db ~minsup:2 in
  check entries "hash_all variant exact"
    (Helpers.sort_entries (Helpers.brute_frequent db ~minsup:2))
    (sorted_frequent d)

let test_dhp_prunes_candidates () =
  (* On a database with many infrequent pairs, DHP must count fewer
     2-candidates than Apriori. *)
  let params = { Olar_datagen.Params.default with num_transactions = 500 } in
  let db = Olar_datagen.Quest.generate params in
  let sa = Stats.create () and sd = Stats.create () in
  let a = Apriori.mine ~stats:sa db ~minsup:10 in
  let d = Dhp.mine ~stats:sd db ~minsup:10 in
  check entries "equal output" (sorted_frequent a) (sorted_frequent d);
  let ca = Olar_util.Timer.Counter.value sa.Stats.candidates in
  let cd = Olar_util.Timer.Counter.value sd.Stats.candidates in
  check Alcotest.bool
    (Printf.sprintf "dhp counts fewer candidates (%d < %d)" cd ca)
    true (cd < ca);
  check Alcotest.bool "pruning accounted" true
    (Olar_util.Timer.Counter.value sd.Stats.hash_pruned > 0)

let miner_oracle_prop ~name mine =
  QCheck2.Test.make ~name ~count:60
    ~print:(fun (db, minsup) -> Helpers.db_print db ^ Printf.sprintf " minsup=%d" minsup)
    QCheck2.Gen.(pair Helpers.db_gen (int_range 1 6))
    (fun (db, minsup) ->
      let mined = mine db ~minsup in
      Helpers.sort_entries (Frequent.to_list mined)
      = Helpers.sort_entries (Helpers.brute_frequent db ~minsup))

let apriori_oracle_prop =
  miner_oracle_prop ~name:"apriori: equals brute force" (fun db ~minsup ->
      Apriori.mine db ~minsup)

let dhp_oracle_prop =
  miner_oracle_prop ~name:"dhp: equals brute force" (fun db ~minsup ->
      Dhp.mine ~buckets:16 db ~minsup)

let dhp_hash_all_oracle_prop =
  miner_oracle_prop ~name:"dhp hash_all: equals brute force" (fun db ~minsup ->
      Dhp.mine ~buckets:8 ~hash_all_levels:true db ~minsup)

let hashtree_counting_oracle_prop =
  miner_oracle_prop ~name:"apriori with hashtree counting: equals brute force"
    (fun db ~minsup -> Apriori.mine ~counting:Levelwise.Use_hashtree db ~minsup)

let parallel_counting_oracle_prop =
  miner_oracle_prop ~name:"apriori with 4 domains: equals brute force"
    (fun db ~minsup -> Apriori.mine ~domains:4 db ~minsup)

let parallel_equals_sequential () =
  let params =
    { Olar_datagen.Params.default with Olar_datagen.Params.num_items = 120;
      num_potential = 40; num_transactions = 2_000; seed = 17 }
  in
  let db = Olar_datagen.Quest.generate params in
  let seq = Dhp.mine db ~minsup:20 in
  let par = Dhp.mine ~domains:4 db ~minsup:20 in
  check entries "identical results" (sorted_frequent seq) (sorted_frequent par);
  Alcotest.check_raises "domains 0" (Invalid_argument "Dhp.mine: domains")
    (fun () -> ignore (Dhp.mine ~domains:0 db ~minsup:20))

(* The miners' logical work on a fixed Quest database, pinned: a
   counting kernel may change how a pass counts, never which candidates
   it counts, how many the hash filter prunes or what trimming drops. *)
let test_mining_stats_pinned () =
  let params =
    { Olar_datagen.Params.default with Olar_datagen.Params.num_items = 120;
      num_potential = 40; num_transactions = 2_000; seed = 17 }
  in
  let db = Olar_datagen.Quest.generate params in
  let stats_of mine domains =
    let stats = Stats.create () in
    ignore (mine ~stats ~domains db ~minsup:40);
    Format.asprintf "%a" Stats.pp stats
  in
  List.iter
    (fun domains ->
      check Alcotest.string
        (Printf.sprintf "dhp, %d domains" domains)
        "passes=11 candidates=25046 frequent=19575 hash_pruned=620 trimmed_items=5970"
        (stats_of (fun ~stats ~domains db ~minsup -> Dhp.mine ~stats ~domains db ~minsup) domains);
      check Alcotest.string
        (Printf.sprintf "apriori, %d domains" domains)
        "passes=11 candidates=25666 frequent=19575 hash_pruned=0 trimmed_items=0"
        (stats_of
           (fun ~stats ~domains db ~minsup -> Apriori.mine ~stats ~domains db ~minsup)
           domains))
    [ 1; 2 ]

let dhp_hashtree_counting_oracle_prop =
  miner_oracle_prop ~name:"dhp with hashtree counting: equals brute force"
    (fun db ~minsup ->
      Dhp.mine ~buckets:16 ~counting:Levelwise.Use_hashtree db ~minsup)

let seed_reuse_prop =
  QCheck2.Test.make ~name:"seeded remine equals fresh mine" ~count:60
    ~print:(fun (db, (a, b)) ->
      Helpers.db_print db ^ Printf.sprintf " low=%d high=%d" a b)
    QCheck2.Gen.(pair Helpers.db_gen (pair (int_range 1 4) (int_range 0 4)))
    (fun (db, (low, bump)) ->
      let high = low + bump in
      let seed = Apriori.mine db ~minsup:low in
      let reused = Apriori.mine db ~seed ~minsup:high in
      let fresh = Apriori.mine db ~minsup:high in
      Helpers.sort_entries (Frequent.to_list reused)
      = Helpers.sort_entries (Frequent.to_list fresh))

(* ------------------------------------------------------------------ *)
(* FP-Growth *)

let test_fpgrowth_small_db () =
  let db = Helpers.small_db () in
  List.iter
    (fun minsup ->
      let got = Fpgrowth.mine db ~minsup in
      check entries
        (Printf.sprintf "minsup=%d" minsup)
        (Helpers.sort_entries (Helpers.brute_frequent db ~minsup))
        (sorted_frequent got))
    [ 1; 2; 3; 4; 6; 11 ]

let test_fpgrowth_single_path () =
  (* a database whose FP-tree is one chain *)
  let db = Database.of_lists ~num_items:4 [ [ 0 ]; [ 0; 1 ]; [ 0; 1; 2 ]; [ 0; 1; 2; 3 ] ] in
  let got = Fpgrowth.mine db ~minsup:1 in
  check entries "single chain"
    (Helpers.sort_entries (Helpers.brute_frequent db ~minsup:1))
    (sorted_frequent got)

let test_fpgrowth_stats () =
  let db = Helpers.small_db () in
  let stats = Stats.create () in
  let f = Fpgrowth.mine ~stats db ~minsup:2 in
  check Alcotest.int "two passes" 2 (Olar_util.Timer.Counter.value stats.Stats.passes);
  check Alcotest.int "no candidates" 0
    (Olar_util.Timer.Counter.value stats.Stats.candidates);
  check Alcotest.int "frequent counted" (Frequent.total f)
    (Olar_util.Timer.Counter.value stats.Stats.frequent);
  Alcotest.check_raises "minsup 0" (Invalid_argument "Fpgrowth.mine: minsup")
    (fun () -> ignore (Fpgrowth.mine db ~minsup:0))

let test_fpgrowth_quest_data () =
  let params =
    { Olar_datagen.Params.default with Olar_datagen.Params.num_items = 100;
      num_potential = 30; num_transactions = 1_500; seed = 31 }
  in
  let db = Olar_datagen.Quest.generate params in
  List.iter
    (fun minsup ->
      let fp = Fpgrowth.mine db ~minsup in
      let ap = Apriori.mine db ~minsup in
      check Alcotest.int
        (Printf.sprintf "totals agree at %d" minsup)
        (Frequent.total ap) (Frequent.total fp);
      check entries "entries agree" (sorted_frequent ap) (sorted_frequent fp))
    [ 15; 40; 100 ]

let fpgrowth_oracle_prop =
  miner_oracle_prop ~name:"fpgrowth: equals brute force" (fun db ~minsup ->
      Fpgrowth.mine db ~minsup)

(* ------------------------------------------------------------------ *)
(* Threshold search *)

let test_threshold_finds_window () =
  let db = Helpers.small_db () in
  (* brute force: counts per threshold let us verify the window *)
  let r = Threshold.naive db ~target:8 ~slack:3 in
  let g = Frequent.total r.Threshold.itemsets in
  check Alcotest.bool (Printf.sprintf "within window (got %d)" g) true
    (g <= 8 && g >= 5);
  check Alcotest.int "result is complete mining at threshold" g
    (List.length (Helpers.brute_frequent db ~minsup:r.Threshold.threshold))

let test_threshold_never_exceeds_target () =
  let db = Helpers.small_db () in
  List.iter
    (fun target ->
      let r = Threshold.naive db ~target ~slack:0 in
      check Alcotest.bool
        (Printf.sprintf "target %d not exceeded" target)
        true
        (Frequent.total r.Threshold.itemsets <= target))
    [ 1; 2; 3; 5; 10; 100 ]

let test_threshold_optimized_agrees () =
  let db = Helpers.small_db () in
  List.iter
    (fun target ->
      let n = Threshold.naive db ~target ~slack:(target / 4) in
      let o = Threshold.optimized db ~target ~slack:(target / 4) in
      check Alcotest.int
        (Printf.sprintf "thresholds agree at target %d" target)
        n.Threshold.threshold o.Threshold.threshold;
      check entries "itemsets agree"
        (Helpers.sort_entries (Frequent.to_list n.Threshold.itemsets))
        (Helpers.sort_entries (Frequent.to_list o.Threshold.itemsets)))
    [ 1; 4; 8; 12; 100 ]

let test_threshold_huge_target () =
  (* Target above everything the db can produce: threshold must reach 1
     and return all itemsets. *)
  let db = Helpers.small_db () in
  let r = Threshold.optimized db ~target:10_000 ~slack:100 in
  check Alcotest.int "threshold bottoms out" 1 r.Threshold.threshold;
  check Alcotest.int "all itemsets"
    (List.length (Helpers.brute_frequent db ~minsup:1))
    (Frequent.total r.Threshold.itemsets)

let test_threshold_validation () =
  let db = Helpers.small_db () in
  Alcotest.check_raises "target 0" (Invalid_argument "Threshold: target")
    (fun () -> ignore (Threshold.naive db ~target:0 ~slack:0));
  Alcotest.check_raises "slack too big" (Invalid_argument "Threshold: slack")
    (fun () -> ignore (Threshold.naive db ~target:5 ~slack:5))

let test_threshold_optimized_cheaper () =
  let params = { Olar_datagen.Params.default with num_transactions = 500 } in
  let db = Olar_datagen.Quest.generate params in
  let sn = Stats.create () and so = Stats.create () in
  let n = Threshold.naive ~stats:sn db ~target:300 ~slack:30 in
  let o = Threshold.optimized ~stats:so db ~target:300 ~slack:30 in
  check Alcotest.int "same answer" n.Threshold.threshold o.Threshold.threshold;
  check Alcotest.bool
    (Printf.sprintf "optimized does less counting (%d <= %d)"
       (Olar_util.Timer.Counter.value so.Stats.candidates)
       (Olar_util.Timer.Counter.value sn.Stats.candidates))
    true
    (Olar_util.Timer.Counter.value so.Stats.candidates
    <= Olar_util.Timer.Counter.value sn.Stats.candidates)

let test_threshold_deadline () =
  let db = Helpers.small_db () in
  (* zero budget: at most the final completion probe runs *)
  let r = Threshold.optimized ~deadline_s:0.0 db ~target:8 ~slack:0 in
  check Alcotest.bool "deadline reported" true r.Threshold.hit_deadline;
  check Alcotest.bool "still a complete result" true
    (Frequent.complete r.Threshold.itemsets);
  check Alcotest.bool "never exceeds target" true
    (Frequent.total r.Threshold.itemsets <= 8);
  (* generous budget: behaves as without one *)
  let full = Threshold.optimized ~deadline_s:60.0 db ~target:8 ~slack:0 in
  let unlimited = Threshold.optimized db ~target:8 ~slack:0 in
  check Alcotest.bool "no deadline hit" false full.Threshold.hit_deadline;
  check Alcotest.int "same threshold" unlimited.Threshold.threshold
    full.Threshold.threshold;
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Threshold: deadline_s") (fun () ->
      ignore (Threshold.optimized ~deadline_s:(-1.0) db ~target:8 ~slack:0))

let test_threshold_fpgrowth_miner () =
  let db = Helpers.small_db () in
  let d = Threshold.optimized ~miner:Threshold.Use_dhp db ~target:8 ~slack:2 in
  let f = Threshold.optimized ~miner:Threshold.Use_fpgrowth db ~target:8 ~slack:2 in
  check Alcotest.int "same threshold" d.Threshold.threshold f.Threshold.threshold;
  check entries "same itemsets"
    (sorted_frequent d.Threshold.itemsets)
    (sorted_frequent f.Threshold.itemsets)

let threshold_agreement_prop =
  QCheck2.Test.make ~name:"threshold: naive and optimized agree" ~count:40
    ~print:(fun (db, target) -> Helpers.db_print db ^ Printf.sprintf " target=%d" target)
    QCheck2.Gen.(pair Helpers.db_gen (int_range 1 40))
    (fun (db, target) ->
      let slack = target / 5 in
      let n = Threshold.naive db ~target ~slack in
      let o = Threshold.optimized db ~target ~slack in
      n.Threshold.threshold = o.Threshold.threshold
      && Frequent.total n.Threshold.itemsets <= target
      && Frequent.total n.Threshold.itemsets = Frequent.total o.Threshold.itemsets)

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "mining.trie",
      [
        case "insert/count" test_trie_insert_count;
        case "sorted output" test_trie_sorted_output;
        case "wrong arity" test_trie_wrong_arity;
        case "short transaction" test_trie_short_transaction;
        QCheck_alcotest.to_alcotest trie_vs_scan_prop;
        case "insert after count" test_trie_insert_after_count;
        QCheck_alcotest.to_alcotest trie_sparse_prop;
        QCheck_alcotest.to_alcotest pair_triangle_prop;
        case "pair triangle fallback" test_pair_triangle_fallback;
      ] );
    ( "mining.candidate",
      [
        case "pairs" test_candidate_pairs;
        case "join+prune" test_candidate_join_prune;
        case "no join" test_candidate_no_join;
        case "validation" test_candidate_validation;
        QCheck_alcotest.to_alcotest candidate_complete_prop;
      ] );
    ( "mining.frequent",
      [
        case "accessors" test_frequent_accessors;
        case "validation" test_frequent_validation;
        case "restrict" test_frequent_restrict;
      ] );
    ( "mining.apriori",
      [
        case "small db" test_apriori_small_db;
        case "minsup 1" test_apriori_minsup_one;
        case "nothing frequent" test_apriori_nothing_frequent;
        case "domains exceed transactions" test_domains_exceed_transactions;
        case "validation" test_apriori_validation;
        case "stats" test_apriori_stats;
        case "cap (early termination)" test_apriori_cap;
        case "max_level" test_apriori_max_level;
        case "seed reuse" test_apriori_seed_reuse;
        case "partial seed" test_apriori_seed_partial;
        case "seed validation" test_apriori_seed_validation;
        QCheck_alcotest.to_alcotest apriori_oracle_prop;
        QCheck_alcotest.to_alcotest seed_reuse_prop;
      ] );
    ( "mining.dhp",
      [
        case "matches apriori" test_dhp_matches_apriori;
        case "small buckets" test_dhp_small_buckets;
        case "hash all levels" test_dhp_hash_all_levels;
        case "prunes candidates" test_dhp_prunes_candidates;
        QCheck_alcotest.to_alcotest dhp_oracle_prop;
        QCheck_alcotest.to_alcotest dhp_hash_all_oracle_prop;
        QCheck_alcotest.to_alcotest hashtree_counting_oracle_prop;
        QCheck_alcotest.to_alcotest dhp_hashtree_counting_oracle_prop;
        QCheck_alcotest.to_alcotest parallel_counting_oracle_prop;
        case "parallel equals sequential" parallel_equals_sequential;
        case "stats pinned" test_mining_stats_pinned;
      ] );
    ( "mining.fpgrowth",
      [
        case "small db" test_fpgrowth_small_db;
        case "single path" test_fpgrowth_single_path;
        case "stats" test_fpgrowth_stats;
        case "quest data" test_fpgrowth_quest_data;
        QCheck_alcotest.to_alcotest fpgrowth_oracle_prop;
      ] );
    ( "mining.threshold",
      [
        case "finds window" test_threshold_finds_window;
        case "never exceeds target" test_threshold_never_exceeds_target;
        case "optimized agrees with naive" test_threshold_optimized_agrees;
        case "huge target" test_threshold_huge_target;
        case "validation" test_threshold_validation;
        case "optimized is cheaper" test_threshold_optimized_cheaper;
        case "fpgrowth as subroutine" test_threshold_fpgrowth_miner;
        case "preprocessing-time deadline" test_threshold_deadline;
        QCheck_alcotest.to_alcotest threshold_agreement_prop;
      ] );
  ]
