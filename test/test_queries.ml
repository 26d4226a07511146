(* Tests for the online query algorithms of olar.core: FindItemsets,
   FindSupport, FindBoundary, rule generation with redundancy
   elimination, lattice serialization and the Engine façade. Each
   algorithm is checked against a brute-force oracle. *)

open Olar_data
open Olar_core

let check = Alcotest.check
let set = Itemset.of_list
let itemset = Helpers.itemset
let entries = Alcotest.list Helpers.entry
let rules = Alcotest.list Helpers.rule
let conf = Conf.of_float

(* ------------------------------------------------------------------ *)
(* Query (FindItemsets) *)

let test_find_itemsets_table2 () =
  let lat = Helpers.table2_lattice () in
  (* All itemsets at support >= 4 (0.4%): singletons + AB? AB=4, AC=7,
     BD=6, BC=4; ABC=3 excluded. *)
  let got = Query.find_itemsets lat ~containing:Itemset.empty ~minsup:4 in
  check entries "all at minsup 4"
    [
      (set [ 2 ], 30); (set [ 1 ], 20); (set [ 0 ], 10); (set [ 3 ], 10);
      (set [ 0; 2 ], 7); (set [ 1; 3 ], 6); (set [ 0; 1 ], 4); (set [ 1; 2 ], 4);
    ]
    (Query.to_entries lat got);
  (* Itemsets containing B at support >= 4. *)
  let got = Query.find_itemsets lat ~containing:(set [ 1 ]) ~minsup:4 in
  check entries "containing B"
    [ (set [ 1 ], 20); (set [ 1; 3 ], 6); (set [ 0; 1 ], 4); (set [ 1; 2 ], 4) ]
    (Query.to_entries lat got);
  (* Without the start vertex. *)
  let got =
    Query.find_itemsets ~include_start:false lat ~containing:(set [ 1 ]) ~minsup:4
  in
  check entries "exclude start"
    [ (set [ 1; 3 ], 6); (set [ 0; 1 ], 4); (set [ 1; 2 ], 4) ]
    (Query.to_entries lat got)

(* The full start-vertex matrix: {empty, non-empty} containing ×
   {true, false} include_start. The root is never reported, so
   include_start only matters for a non-empty, qualifying start. *)
let test_find_itemsets_include_start_matrix () =
  let lat = Helpers.table2_lattice () in
  let run ~containing ~include_start =
    Query.to_entries lat
      (Query.find_itemsets ~include_start lat ~containing ~minsup:10)
  in
  let singletons =
    [ (set [ 2 ], 30); (set [ 1 ], 20); (set [ 0 ], 10); (set [ 3 ], 10) ]
  in
  (* Empty containing: the empty itemset is never included, regardless
     of include_start. *)
  check entries "empty containing, include_start=true" singletons
    (run ~containing:Itemset.empty ~include_start:true);
  check entries "empty containing, include_start=false" singletons
    (run ~containing:Itemset.empty ~include_start:false);
  (* Non-empty containing {A}: only the start itself qualifies at
     minsup 10, so include_start decides between [A] and []. *)
  check entries "containing A, include_start=true"
    [ (set [ 0 ], 10) ]
    (run ~containing:(set [ 0 ]) ~include_start:true);
  check entries "containing A, include_start=false" []
    (run ~containing:(set [ 0 ]) ~include_start:false);
  (* count_itemsets follows the same matrix. *)
  let count ~containing ~include_start =
    Query.count_itemsets ~include_start lat ~containing ~minsup:10
  in
  check Alcotest.int "count: empty, true" 4
    (count ~containing:Itemset.empty ~include_start:true);
  check Alcotest.int "count: empty, false" 4
    (count ~containing:Itemset.empty ~include_start:false);
  check Alcotest.int "count: A, true" 1
    (count ~containing:(set [ 0 ]) ~include_start:true);
  check Alcotest.int "count: A, false" 0
    (count ~containing:(set [ 0 ]) ~include_start:false)

let test_find_itemsets_not_primary () =
  let lat = Helpers.table2_lattice () in
  check entries "non-primary start is empty" []
    (Query.to_entries lat (Query.find_itemsets lat ~containing:(set [ 0; 3 ]) ~minsup:5))

let test_find_itemsets_below_primary () =
  let lat = Helpers.table2_lattice () in
  (try
     ignore (Query.find_itemsets lat ~containing:Itemset.empty ~minsup:2);
     Alcotest.fail "expected Below_primary_threshold"
   with Query.Below_primary_threshold { requested; primary } ->
     check Alcotest.int "requested" 2 requested;
     check Alcotest.int "primary" 3 primary);
  Alcotest.check_raises "minsup 0"
    (Invalid_argument "Query: minsup must be positive") (fun () ->
      ignore (Query.find_itemsets lat ~containing:Itemset.empty ~minsup:0))

(* A cut above every non-root support, or above the database size,
   answers nothing at the root and elsewhere, with no exception: the
   ordering must not size a buffer from a support range that is empty. *)
let test_find_itemsets_cut_above_supports () =
  let lat = Helpers.table2_lattice () in
  List.iter
    (fun (label, containing) ->
      List.iter
        (fun minsup ->
          let label = Printf.sprintf "%s, minsup %d" label minsup in
          check (Alcotest.array Alcotest.int) ("find " ^ label) [||]
            (Query.find_itemsets lat ~containing ~minsup);
          check Alcotest.int ("count " ^ label) 0
            (Query.count_itemsets lat ~containing ~minsup))
        [ 31; 1000; 1001 ])
    [ ("root", Itemset.empty); ("C", set [ 2 ]); ("BC", set [ 1; 2 ]) ]

let test_count_itemsets () =
  let lat = Helpers.table2_lattice () in
  check Alcotest.int "count = length" 8
    (Query.count_itemsets lat ~containing:Itemset.empty ~minsup:4);
  check Alcotest.int "count containing B" 4
    (Query.count_itemsets lat ~containing:(set [ 1 ]) ~minsup:4)

let test_find_itemsets_work_is_output_sensitive () =
  let lat = Helpers.table2_lattice () in
  let work_small = Olar_util.Timer.Counter.create "w" in
  let _ = Query.find_itemsets ~work:work_small lat ~containing:Itemset.empty ~minsup:25 in
  let work_large = Olar_util.Timer.Counter.create "w" in
  let _ = Query.find_itemsets ~work:work_large lat ~containing:Itemset.empty ~minsup:3 in
  check Alcotest.bool "smaller output, less work" true
    (Olar_util.Timer.Counter.value work_small
    < Olar_util.Timer.Counter.value work_large)

(* Oracle: FindItemsets must equal a filter over all itemsets. *)
let find_itemsets_oracle_prop =
  QCheck2.Test.make ~name:"find_itemsets: equals brute-force filter" ~count:80
    ~print:(fun ((db, z), s) ->
      Helpers.db_print db ^ "/" ^ Itemset.to_string z ^ Printf.sprintf " s=%d" s)
    QCheck2.Gen.(pair Helpers.db_and_itemset_gen (int_range 1 6))
    (fun ((db, z), minsup) ->
      let engine = Helpers.full_engine db in
      let lat = Engine.lattice engine in
      let got =
        Query.to_entries lat (Query.find_itemsets lat ~containing:z ~minsup)
      in
      let expected =
        List.filter
          (fun (x, c) -> Itemset.subset z x && c >= minsup)
          (Helpers.brute_frequent db ~minsup:1)
      in
      Helpers.sort_entries got = Helpers.sort_entries expected)

(* ------------------------------------------------------------------ *)
(* Support_query (FindSupport) *)

let test_find_support_table2 () =
  let lat = Helpers.table2_lattice () in
  (* Top-3 itemsets overall: C (30), B (20), A|D (10, tie -> smaller
     cardinality/lex deterministic). *)
  let a = Support_query.find_support lat ~containing:Itemset.empty ~k:3 in
  check entries "top 3" [ (set [ 2 ], 30); (set [ 1 ], 20); (set [ 0 ], 10) ]
    a.Support_query.itemsets;
  check (Alcotest.option Alcotest.int) "support level" (Some 10)
    a.Support_query.support_level;
  (* k = 4 picks up D at the same support *)
  let a4 = Support_query.find_support lat ~containing:Itemset.empty ~k:4 in
  check (Alcotest.option Alcotest.int) "level at k=4" (Some 10)
    a4.Support_query.support_level

let test_find_support_containing () =
  let lat = Helpers.table2_lattice () in
  let a = Support_query.find_support lat ~containing:(set [ 0 ]) ~k:2 in
  check entries "top 2 containing A" [ (set [ 0 ], 10); (set [ 0; 2 ], 7) ]
    a.Support_query.itemsets

let test_find_support_exhausted () =
  let lat = Helpers.table2_lattice () in
  let a = Support_query.find_support lat ~containing:(set [ 3 ]) ~k:10 in
  (* only D and BD contain D *)
  check Alcotest.int "all found" 2 (List.length a.Support_query.itemsets);
  check (Alcotest.option Alcotest.int) "no level" None a.Support_query.support_level;
  let missing = Support_query.find_support lat ~containing:(set [ 0; 3 ]) ~k:1 in
  check Alcotest.int "not primary: empty" 0 (List.length missing.Support_query.itemsets);
  Alcotest.check_raises "k=0" (Invalid_argument "Support_query.find_support: k")
    (fun () -> ignore (Support_query.find_support lat ~containing:Itemset.empty ~k:0))

(* Oracle: the k highest-support itemsets containing Z. *)
let find_support_oracle_prop =
  QCheck2.Test.make ~name:"find_support: equals sort oracle" ~count:80
    ~print:(fun ((db, z), k) ->
      Helpers.db_print db ^ "/" ^ Itemset.to_string z ^ Printf.sprintf " k=%d" k)
    QCheck2.Gen.(pair Helpers.db_and_itemset_gen (int_range 1 12))
    (fun ((db, z), k) ->
      let engine = Helpers.full_engine db in
      let lat = Engine.lattice engine in
      let answer = Support_query.find_support lat ~containing:z ~k in
      let eligible =
        List.filter (fun (x, _) -> Itemset.subset z x) (Helpers.brute_frequent db ~minsup:1)
      in
      let sorted =
        List.sort (fun (_, c1) (_, c2) -> Int.compare c2 c1) eligible
      in
      let expected_supports =
        List.filteri (fun i _ -> i < k) (List.map snd sorted)
      in
      List.map snd answer.Support_query.itemsets = expected_supports
      &&
      match answer.Support_query.support_level with
      | Some level ->
        List.length expected_supports = k
        && level = List.nth expected_supports (k - 1)
      | None -> List.length eligible < k)

let test_find_support_for_rules () =
  let lat = Helpers.table2_lattice () in
  (* At confidence 0.3: from BD (6), rules D=>B (6/10=0.6) and B=>D (0.3)
     both qualify; BD is the strongest rule-bearing itemset. *)
  let a =
    Support_query.find_support_for_rules lat ~involving:Itemset.empty
      ~confidence:(conf 0.3) ~k:2
  in
  (* pops: AC (7) yields A=>C; BD (6) yields B=>D and D=>B, crossing k *)
  check Alcotest.int "three rules accumulated" 3 (List.length a.Support_query.rules);
  check (Alcotest.option Alcotest.int) "level" (Some 6)
    a.Support_query.rule_support_level;
  (* Asking for more rules than exist *)
  let all =
    Support_query.find_support_for_rules lat ~involving:Itemset.empty
      ~confidence:(conf 0.999) ~k:100
  in
  check (Alcotest.option Alcotest.int) "unreachable k" None
    all.Support_query.rule_support_level

let test_find_support_for_rules_involving () =
  let lat = Helpers.table2_lattice () in
  let a =
    Support_query.find_support_for_rules lat ~involving:(set [ 0 ])
      ~confidence:(conf 0.2) ~k:1
  in
  (* strongest itemset containing A with a rule: AC (7): C=>A 7/30 fails
     0.2? 0.2333 >= 0.2 yes; A=>C 0.7 passes. *)
  check (Alcotest.option Alcotest.int) "level" (Some 7)
    a.Support_query.rule_support_level;
  List.iter
    (fun r ->
      check Alcotest.bool "involves A" true
        (Itemset.mem 0 (Rule.union r)))
    a.Support_query.rules

(* ------------------------------------------------------------------ *)
(* Boundary *)

(* The Figure 4 shape: DEFG (D=0,E=1,F=2,G=3) where exactly the three
   3-subsets DEF, DFG, EFG satisfy the confidence bound. *)
let figure4_lattice () =
  let e l c = (set l, c) in
  Lattice.of_entries ~db_size:1000 ~threshold:100
    [|
      e [ 0 ] 500; e [ 1 ] 500; e [ 2 ] 500; e [ 3 ] 500;
      e [ 0; 1 ] 400; e [ 0; 2 ] 400; e [ 0; 3 ] 400;
      e [ 1; 2 ] 400; e [ 1; 3 ] 400; e [ 2; 3 ] 400;
      e [ 0; 1; 2 ] 200; e [ 0; 2; 3 ] 200; e [ 1; 2; 3 ] 200;
      e [ 0; 1; 3 ] 250;
      e [ 0; 1; 2; 3 ] 180;
    |]

let test_boundary_figure4 () =
  let lat = figure4_lattice () in
  let defg = Option.get (Lattice.find lat (set [ 0; 1; 2; 3 ])) in
  let b = Boundary.find_boundary lat ~target:defg ~confidence:(conf 0.9) in
  check (Alcotest.list itemset) "three maximal ancestors"
    [ set [ 0; 1; 2 ]; set [ 0; 2; 3 ]; set [ 1; 2; 3 ] ]
    (List.map (Lattice.itemset lat) b);
  (* the non-maximal satisfying ancestor set equals the boundary here *)
  let all = Boundary.all_ancestor_antecedents lat ~target:defg ~confidence:(conf 0.9) in
  check Alcotest.int "all satisfying" 3 (List.length all)

let test_boundary_includes_non_maximal () =
  let lat = figure4_lattice () in
  let defg = Option.get (Lattice.find lat (set [ 0; 1; 2; 3 ])) in
  (* At c=0.45, bound = 400: pairs and DEG also satisfy. *)
  let b = Boundary.find_boundary lat ~target:defg ~confidence:(conf 0.45) in
  check (Alcotest.list itemset) "maximal are the pairs"
    [ set [ 0; 1 ]; set [ 0; 2 ]; set [ 0; 3 ]; set [ 1; 2 ]; set [ 1; 3 ]; set [ 2; 3 ] ]
    (List.map (Lattice.itemset lat) b);
  let all =
    Boundary.all_ancestor_antecedents lat ~target:defg ~confidence:(conf 0.45)
  in
  check Alcotest.int "all satisfying: 6 pairs + 4 triples" 10 (List.length all)

let test_boundary_empty_antecedent_policy () =
  let lat = Helpers.table2_lattice () in
  let abc = Option.get (Lattice.find lat (set [ 0; 1; 2 ])) in
  (* At a tiny confidence every ancestor satisfies; without empty
     antecedents the singletons are maximal, with them the root is. *)
  let b = Boundary.find_boundary lat ~target:abc ~confidence:(conf 0.003) in
  check (Alcotest.list itemset) "singletons"
    [ set [ 0 ]; set [ 1 ]; set [ 2 ] ]
    (List.map (Lattice.itemset lat) b);
  let cs = { Boundary.unconstrained with allow_empty_antecedent = true } in
  let b = Boundary.find_boundary ~constraints:cs lat ~target:abc ~confidence:(conf 0.003) in
  check (Alcotest.list itemset) "root only" [ Itemset.empty ]
    (List.map (Lattice.itemset lat) b)

let test_boundary_constraints () =
  let lat = figure4_lattice () in
  let defg = Option.get (Lattice.find lat (set [ 0; 1; 2; 3 ])) in
  (* Antecedent must contain D (=0): EFG drops out, E-containing DEF and
     D-containing DFG stay. *)
  let cs = { Boundary.unconstrained with antecedent_includes = set [ 0 ] } in
  let b = Boundary.find_boundary ~constraints:cs lat ~target:defg ~confidence:(conf 0.9) in
  check (Alcotest.list itemset) "antecedent includes D"
    [ set [ 0; 1; 2 ]; set [ 0; 2; 3 ] ]
    (List.map (Lattice.itemset lat) b);
  (* Consequent must contain G (=3): only DEF qualifies (its complement
     is {G}); DFG and EFG contain G in the antecedent. *)
  let cs = { Boundary.unconstrained with consequent_includes = set [ 3 ] } in
  let b = Boundary.find_boundary ~constraints:cs lat ~target:defg ~confidence:(conf 0.9) in
  check (Alcotest.list itemset) "consequent includes G" [ set [ 0; 1; 2 ] ]
    (List.map (Lattice.itemset lat) b);
  (* Infeasible: P and Q overlap. *)
  let cs =
    {
      Boundary.unconstrained with
      antecedent_includes = set [ 0 ];
      consequent_includes = set [ 0 ];
    }
  in
  check (Alcotest.list itemset) "overlapping P,Q" []
    (List.map (Lattice.itemset lat)
       (Boundary.find_boundary ~constraints:cs lat ~target:defg ~confidence:(conf 0.9)));
  (* P not inside X *)
  let cs = { Boundary.unconstrained with antecedent_includes = set [ 9 ] } in
  check (Alcotest.list itemset) "P outside X" []
    (List.map (Lattice.itemset lat)
       (Boundary.find_boundary ~constraints:cs lat ~target:defg ~confidence:(conf 0.9)))

let test_boundary_bad_target () =
  let lat = Helpers.table2_lattice () in
  Alcotest.check_raises "bad id" (Invalid_argument "Boundary: bad vertex id")
    (fun () ->
      ignore (Boundary.find_boundary lat ~target:99 ~confidence:(conf 0.5)))

(* Brute-force oracle for boundaries over a full lattice of a random
   database. *)
let brute_boundary db ~target_set ~c ~p ~q ~allow_empty =
  let n = Database.size db in
  let sup x = if Itemset.is_empty x then n else Database.support_count db x in
  let sx = sup target_set in
  let candidates =
    List.filter
      (fun y ->
        Itemset.strict_subset y target_set
        && (allow_empty || not (Itemset.is_empty y))
        && Itemset.subset p y
        && Itemset.disjoint y q
        && Conf.satisfied c ~union_count:sx ~antecedent_count:(sup y))
      (Itemset.subsets target_set)
  in
  (* maximal = no strict subset also a candidate *)
  List.filter
    (fun y ->
      not (List.exists (fun z -> Itemset.strict_subset z y) candidates))
    candidates

let boundary_oracle_prop =
  QCheck2.Test.make ~name:"boundary: equals brute-force maximal ancestors"
    ~count:80
    ~print:(fun ((db, _), cf) -> Helpers.db_print db ^ Printf.sprintf " c=%f" cf)
    QCheck2.Gen.(pair Helpers.db_and_itemset_gen (float_range 0.05 1.0))
    (fun ((db, z), cf) ->
      let c = conf cf in
      let engine = Helpers.full_engine db in
      let lat = Engine.lattice engine in
      match Lattice.find lat z with
      | None -> QCheck2.assume_fail ()
      | Some target ->
        QCheck2.assume (Itemset.cardinal z >= 1);
        let got =
          List.map (Lattice.itemset lat)
            (Boundary.find_boundary lat ~target ~confidence:c)
        in
        let expected =
          brute_boundary db ~target_set:z ~c ~p:Itemset.empty ~q:Itemset.empty
            ~allow_empty:false
        in
        List.sort Itemset.compare got = List.sort Itemset.compare expected)

let boundary_constrained_oracle_prop =
  QCheck2.Test.make ~name:"boundary: constrained equals brute force" ~count:80
    ~print:(fun (((db, _), _), cf) -> Helpers.db_print db ^ Printf.sprintf " c=%f" cf)
    QCheck2.Gen.(
      pair
        (pair Helpers.db_and_itemset_gen (pair (int_range 0 7) (int_range 0 7)))
        (float_range 0.05 1.0))
    (fun (((db, z), (pi, qi)), cf) ->
      QCheck2.assume (Itemset.cardinal z >= 2);
      let c = conf cf in
      let items = Itemset.to_array z in
      let p = Itemset.singleton items.(pi mod Array.length items) in
      let q = Itemset.singleton items.(qi mod Array.length items) in
      let engine = Helpers.full_engine db in
      let lat = Engine.lattice engine in
      match Lattice.find lat z with
      | None -> QCheck2.assume_fail ()
      | Some target ->
        let cs =
          {
            Boundary.unconstrained with
            antecedent_includes = p;
            consequent_includes = q;
          }
        in
        let got =
          List.map (Lattice.itemset lat)
            (Boundary.find_boundary ~constraints:cs lat ~target ~confidence:c)
        in
        let expected =
          if Itemset.disjoint p q then
            brute_boundary db ~target_set:z ~c ~p ~q ~allow_empty:false
          else []
        in
        List.sort Itemset.compare got = List.sort Itemset.compare expected)

(* ------------------------------------------------------------------ *)
(* Rulegen *)

let test_essential_rules_figure4 () =
  let lat = figure4_lattice () in
  let got = Rulegen.essential_rules lat ~minsup:150 ~confidence:(conf 0.9) in
  (* From DEFG: the three boundary rules; DEF/DFG/EFG themselves generate
     nothing at 0.9 (pair supports 400 are far above 200/0.9). *)
  check rules "three essential rules"
    [
      Rule.make ~antecedent:(set [ 0; 1; 2 ]) ~consequent:(set [ 3 ])
        ~support_count:180 ~antecedent_count:200;
      Rule.make ~antecedent:(set [ 0; 2; 3 ]) ~consequent:(set [ 1 ])
        ~support_count:180 ~antecedent_count:200;
      Rule.make ~antecedent:(set [ 1; 2; 3 ]) ~consequent:(set [ 0 ])
        ~support_count:180 ~antecedent_count:200;
    ]
    got

let test_essential_strict_pruning () =
  (* A chain where the same antecedent serves a child itemset: the rule
     from the parent itemset must be pruned (Theorem 4.5). With
     A={0}: S(A)=10, S(AB)=9, S(ABC)=9: at c=0.9, A=>B (9/10) and
     A=>BC (9/10) both clear, but A=>B is strictly redundant w.r.t.
     A=>BC. *)
  let lat =
    Lattice.of_entries ~db_size:100 ~threshold:5
      [|
        (set [ 0 ], 10); (set [ 1 ], 10); (set [ 2 ], 10);
        (set [ 0; 1 ], 9); (set [ 0; 2 ], 9); (set [ 1; 2 ], 9);
        (set [ 0; 1; 2 ], 9);
      |]
  in
  let got = Rulegen.essential_rules lat ~minsup:5 ~confidence:(conf 0.9) in
  check rules "only the maximal-itemset rules"
    [
      Rule.make ~antecedent:(set [ 0 ]) ~consequent:(set [ 1; 2 ])
        ~support_count:9 ~antecedent_count:10;
      Rule.make ~antecedent:(set [ 1 ]) ~consequent:(set [ 0; 2 ])
        ~support_count:9 ~antecedent_count:10;
      Rule.make ~antecedent:(set [ 2 ]) ~consequent:(set [ 0; 1 ])
        ~support_count:9 ~antecedent_count:10;
    ]
    got

let test_essential_vs_brute_small_db () =
  let db = Helpers.small_db () in
  let engine = Helpers.full_engine db in
  let lat = Engine.lattice engine in
  List.iter
    (fun (minsup, cf) ->
      let got = Rulegen.essential_rules lat ~minsup ~confidence:(conf cf) in
      let expected = Helpers.brute_essential_rules db ~minsup ~confidence:(conf cf) in
      check rules (Printf.sprintf "minsup=%d c=%.2f" minsup cf)
        (List.sort Rule.compare expected)
        got)
    [ (2, 0.6); (2, 0.9); (3, 0.5); (4, 0.75); (2, 1.0); (5, 0.1) ]

let test_all_rules_vs_brute () =
  let db = Helpers.small_db () in
  let engine = Helpers.full_engine db in
  let lat = Engine.lattice engine in
  let got = Rulegen.all_rules lat ~minsup:2 ~confidence:(conf 0.6) in
  let expected = Helpers.brute_rules db ~minsup:2 ~confidence:(conf 0.6) in
  check rules "all rules" (List.sort Rule.compare expected) got

let test_rules_containing () =
  let db = Helpers.small_db () in
  let engine = Helpers.full_engine db in
  let lat = Engine.lattice engine in
  let z = set [ 3 ] in
  let got = Rulegen.all_rules ~containing:z lat ~minsup:2 ~confidence:(conf 0.4) in
  let expected =
    List.filter
      (fun r -> Itemset.subset z (Rule.union r))
      (Helpers.brute_rules db ~minsup:2 ~confidence:(conf 0.4))
  in
  check rules "scoped to itemsets containing {3}"
    (List.sort Rule.compare expected)
    got;
  List.iter
    (fun r -> check Alcotest.bool "mentions 3" true (Itemset.mem 3 (Rule.union r)))
    got

let test_single_consequent_rules () =
  let db = Helpers.small_db () in
  let engine = Helpers.full_engine db in
  let lat = Engine.lattice engine in
  let got = Rulegen.single_consequent_rules lat ~minsup:2 ~confidence:(conf 0.6) in
  let expected =
    List.filter Rule.single_consequent
      (Helpers.brute_rules db ~minsup:2 ~confidence:(conf 0.6))
  in
  check rules "single-consequent" (List.sort Rule.compare expected) got

let test_redundancy_report () =
  let db = Helpers.small_db () in
  let engine = Helpers.full_engine db in
  let lat = Engine.lattice engine in
  let r = Rulegen.redundancy lat ~minsup:2 ~confidence:(conf 0.6) in
  let all = Helpers.brute_rules db ~minsup:2 ~confidence:(conf 0.6) in
  let ess = Helpers.brute_essential_rules db ~minsup:2 ~confidence:(conf 0.6) in
  check Alcotest.int "total" (List.length all) r.Rulegen.total_rules;
  check Alcotest.int "essential" (List.length ess) r.Rulegen.essential_count;
  check (Alcotest.float 1e-9) "ratio"
    (float_of_int (List.length all) /. float_of_int (List.length ess))
    r.Rulegen.redundancy_ratio;
  (* no rules at impossible thresholds: ratio degrades to 1 *)
  let none = Rulegen.redundancy lat ~minsup:11 ~confidence:(conf 1.0) in
  check Alcotest.int "no rules" 0 none.Rulegen.total_rules;
  check (Alcotest.float 0.0) "ratio 1" 1.0 none.Rulegen.redundancy_ratio

let essential_oracle_prop =
  QCheck2.Test.make ~name:"essential rules: equal brute-force Definition 4.2"
    ~count:60
    ~print:(fun ((db, _), (s, cf)) ->
      Helpers.db_print db ^ Printf.sprintf " s=%d c=%f" s cf)
    QCheck2.Gen.(
      pair Helpers.db_and_itemset_gen (pair (int_range 1 5) (float_range 0.1 1.0)))
    (fun ((db, _), (minsup, cf)) ->
      let c = conf cf in
      let engine = Helpers.full_engine db in
      let lat = Engine.lattice engine in
      let got = Rulegen.essential_rules lat ~minsup ~confidence:c in
      let expected = Helpers.brute_essential_rules db ~minsup ~confidence:c in
      got = List.sort Rule.compare expected)

let all_rules_oracle_prop =
  QCheck2.Test.make ~name:"all rules: equal brute force" ~count:60
    ~print:(fun ((db, _), (s, cf)) ->
      Helpers.db_print db ^ Printf.sprintf " s=%d c=%f" s cf)
    QCheck2.Gen.(
      pair Helpers.db_and_itemset_gen (pair (int_range 1 5) (float_range 0.1 1.0)))
    (fun ((db, _), (minsup, cf)) ->
      let c = conf cf in
      let engine = Helpers.full_engine db in
      let lat = Engine.lattice engine in
      let got = Rulegen.all_rules lat ~minsup ~confidence:c in
      let expected = Helpers.brute_rules db ~minsup ~confidence:c in
      got = List.sort Rule.compare expected)

let constrained_rules_oracle_prop =
  QCheck2.Test.make ~name:"constrained essential rules: equal brute force"
    ~count:60
    ~print:(fun (((db, _), _), cf) -> Helpers.db_print db ^ Printf.sprintf " c=%f" cf)
    QCheck2.Gen.(
      pair
        (pair Helpers.db_and_itemset_gen (pair (int_range 0 7) (int_range 0 7)))
        (float_range 0.1 1.0))
    (fun (((db, _), (pi, qi)), cf) ->
      let c = conf cf in
      let n = Database.num_items db in
      let p = Itemset.singleton (pi mod n) in
      let q = Itemset.singleton (qi mod n) in
      QCheck2.assume (not (Itemset.equal p q));
      let cs =
        {
          Boundary.unconstrained with
          antecedent_includes = p;
          consequent_includes = q;
        }
      in
      let engine = Helpers.full_engine db in
      let lat = Engine.lattice engine in
      let got = Rulegen.essential_rules ~constraints:cs lat ~minsup:2 ~confidence:c in
      (* brute force: restrict the family to rules satisfying the
         constraints, then apply Definition 4.2 within it *)
      let family =
        List.filter
          (fun r ->
            Itemset.subset p r.Rule.antecedent && Itemset.subset q r.Rule.consequent)
          (Helpers.brute_rules db ~minsup:2 ~confidence:c)
      in
      let expected = Olar_baseline.Naive_rules.essential_filter family in
      got = List.sort Rule.compare expected)

let test_essential_with_empty_antecedent () =
  (* allow_empty_antecedent admits the degenerate rules ∅ => X; the
     boundary promotes the root and the per-itemset essential output
     collapses to one rule per maximal-by-confidence family. *)
  let lat = Helpers.table2_lattice () in
  let cs = { Boundary.unconstrained with allow_empty_antecedent = true } in
  let got =
    Rulegen.essential_rules ~constraints:cs lat ~minsup:3 ~confidence:(conf 0.003)
  in
  (* at a near-zero confidence every ancestor qualifies, so the only
     essential antecedent is the root *)
  List.iter
    (fun r ->
      check Alcotest.bool "empty antecedent" true
        (Itemset.is_empty r.Rule.antecedent))
    got;
  check Alcotest.bool "rules exist" true (got <> []);
  (* each rule's support/confidence are the itemset's support *)
  List.iter
    (fun r ->
      check Alcotest.int "antecedent count is db size" 1000 r.Rule.antecedent_count)
    got

(* ------------------------------------------------------------------ *)
(* Serialize *)

let test_serialize_roundtrip () =
  let lat = Helpers.table2_lattice () in
  let path = Filename.temp_file "olar" ".lattice" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save lat path;
      let back = Serialize.load path in
      check Alcotest.int "vertices" (Lattice.num_vertices lat) (Lattice.num_vertices back);
      check Alcotest.int "edges" (Lattice.num_edges lat) (Lattice.num_edges back);
      check Alcotest.int "threshold" (Lattice.threshold lat) (Lattice.threshold back);
      check Alcotest.int "db_size" (Lattice.db_size lat) (Lattice.db_size back);
      Array.iter
        (fun (x, c) ->
          check (Alcotest.option Alcotest.int) (Itemset.to_string x) (Some c)
            (Lattice.support_of back x))
        (Lattice.entries lat))

let expect_malformed lines =
  match Serialize.parse lines with
  | exception Serialize.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed"

let test_serialize_malformed () =
  expect_malformed [];
  expect_malformed [ "nope" ];
  expect_malformed [ "# olar adjacency lattice v1"; "dbsize 10"; "threshold 2" ];
  expect_malformed
    [ "# olar adjacency lattice v1"; "dbsize 10"; "threshold 2"; "itemsets 1" ];
  expect_malformed
    [
      "# olar adjacency lattice v1"; "dbsize 10"; "threshold 2"; "itemsets 1";
      "5";
    ];
  (* closure violation caught on load *)
  expect_malformed
    [
      "# olar adjacency lattice v1"; "dbsize 10"; "threshold 2"; "itemsets 1";
      "5 0 1";
    ]

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_at_threshold () =
  let db = Helpers.small_db () in
  let engine = Engine.at_threshold db ~primary_support:0.2 in
  check Alcotest.int "db size" 10 (Engine.db_size engine);
  check Alcotest.int "threshold count" 2 (Engine.primary_threshold_count engine);
  check (Alcotest.float 1e-9) "threshold fraction" 0.2 (Engine.primary_threshold engine);
  check Alcotest.int "primary itemsets" 10 (Engine.num_primary_itemsets engine);
  check Alcotest.int "count_of_support" 4 (Engine.count_of_support engine 0.35)

let test_engine_queries_fractional () =
  let db = Helpers.small_db () in
  let engine = Engine.at_threshold db ~primary_support:0.2 in
  let items = Engine.itemsets engine ~minsup:0.4 in
  List.iter
    (fun (x, s) ->
      check (Alcotest.float 1e-9)
        ("support of " ^ Itemset.to_string x)
        (Database.support db x) s;
      check Alcotest.bool "meets minsup" true (s >= 0.4))
    items;
  check Alcotest.int "count agrees" (List.length items)
    (Engine.count_itemsets engine ~minsup:0.4);
  let ess = Engine.essential_rules engine ~minsup:0.2 ~minconf:0.6 in
  check rules "essential matches brute"
    (List.sort Rule.compare
       (Helpers.brute_essential_rules db ~minsup:2 ~confidence:(conf 0.6)))
    ess;
  let sc = Engine.single_consequent_rules engine ~minsup:0.2 ~minconf:0.6 in
  List.iter (fun r -> check Alcotest.bool "single" true (Rule.single_consequent r)) sc

let test_engine_reverse_queries () =
  let db = Helpers.small_db () in
  let engine = Engine.at_threshold db ~primary_support:0.1 in
  (match Engine.support_for_k_itemsets engine ~containing:Itemset.empty ~k:3 with
  | Some level -> check Alcotest.bool "level positive" true (level > 0.0)
  | None -> Alcotest.fail "expected a level");
  check (Alcotest.option (Alcotest.float 1e-9)) "k too large" None
    (Engine.support_for_k_itemsets engine ~containing:(set [ 4 ]) ~k:50);
  match
    Engine.support_for_k_rules engine ~involving:Itemset.empty ~minconf:0.5 ~k:2
  with
  | Some level -> check Alcotest.bool "rule level positive" true (level > 0.0)
  | None -> Alcotest.fail "expected a rule level"

let test_engine_preprocess_budget () =
  let db = Helpers.small_db () in
  let engine = Engine.preprocess db ~max_itemsets:8 in
  check Alcotest.bool "fits budget" true (Engine.num_primary_itemsets engine <= 8);
  let naive = Engine.preprocess ~search:`Naive db ~max_itemsets:8 in
  check Alcotest.int "searches agree"
    (Engine.num_primary_itemsets engine)
    (Engine.num_primary_itemsets naive);
  Alcotest.check_raises "bad budget"
    (Invalid_argument "Engine.preprocess: max_itemsets") (fun () ->
      ignore (Engine.preprocess db ~max_itemsets:0))

let test_engine_save_load () =
  let db = Helpers.small_db () in
  let engine = Engine.at_threshold db ~primary_support:0.2 in
  let path = Filename.temp_file "olar" ".lattice" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Engine.save engine path;
      let back = Engine.load path in
      check Alcotest.int "itemsets survive"
        (Engine.num_primary_itemsets engine)
        (Engine.num_primary_itemsets back);
      check rules "queries equal after reload"
        (Engine.essential_rules engine ~minsup:0.2 ~minconf:0.7)
        (Engine.essential_rules back ~minsup:0.2 ~minconf:0.7))

let test_engine_append () =
  let db = Helpers.small_db () in
  let engine = Engine.at_threshold db ~primary_support:0.2 in
  let delta = Database.of_lists ~num_items:5 [ [ 0; 1; 2 ]; [ 3; 4 ] ] in
  let engine', promoted = Engine.append engine delta in
  check Alcotest.int "grown" 12 (Engine.db_size engine');
  check Alcotest.int "same vertex set"
    (Engine.num_primary_itemsets engine)
    (Engine.num_primary_itemsets engine');
  (* {0,1,2} gained a count; queries reflect it *)
  let merged_count =
    Database.support_count db (set [ 0; 1; 2 ]) + 1
  in
  check (Alcotest.option Alcotest.int) "updated count" (Some merged_count)
    (Lattice.support_of (Engine.lattice engine') (set [ 0; 1; 2 ]));
  check Alcotest.bool "no promotions from 2 transactions" true (promoted = [])

let test_engine_validation () =
  let db = Helpers.small_db () in
  Alcotest.check_raises "primary support 0"
    (Invalid_argument "Engine.at_threshold: primary_support") (fun () ->
      ignore (Engine.at_threshold db ~primary_support:0.0));
  let engine = Engine.at_threshold db ~primary_support:0.3 in
  (try
     ignore (Engine.itemsets engine ~minsup:0.1);
     Alcotest.fail "expected Below_primary_threshold"
   with Query.Below_primary_threshold _ -> ());
  Alcotest.check_raises "minsup above 1"
    (Invalid_argument "Engine.count_of_support") (fun () ->
      ignore (Engine.itemsets engine ~minsup:1.5))

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "core.query",
      [
        case "Table 2 queries" test_find_itemsets_table2;
        case "include_start matrix" test_find_itemsets_include_start_matrix;
        case "non-primary start" test_find_itemsets_not_primary;
        case "below primary threshold" test_find_itemsets_below_primary;
        case "cut above every support" test_find_itemsets_cut_above_supports;
        case "count" test_count_itemsets;
        case "output-sensitive work" test_find_itemsets_work_is_output_sensitive;
        QCheck_alcotest.to_alcotest find_itemsets_oracle_prop;
      ] );
    ( "core.support_query",
      [
        case "Table 2 top-k" test_find_support_table2;
        case "containing" test_find_support_containing;
        case "exhausted" test_find_support_exhausted;
        case "rules variant" test_find_support_for_rules;
        case "rules involving" test_find_support_for_rules_involving;
        QCheck_alcotest.to_alcotest find_support_oracle_prop;
      ] );
    ( "core.boundary",
      [
        case "Figure 4" test_boundary_figure4;
        case "lower confidence widens" test_boundary_includes_non_maximal;
        case "empty antecedent policy" test_boundary_empty_antecedent_policy;
        case "constraints" test_boundary_constraints;
        case "bad target" test_boundary_bad_target;
        QCheck_alcotest.to_alcotest boundary_oracle_prop;
        QCheck_alcotest.to_alcotest boundary_constrained_oracle_prop;
      ] );
    ( "core.rulegen",
      [
        case "Figure 4 essential rules" test_essential_rules_figure4;
        case "strict pruning" test_essential_strict_pruning;
        case "essential vs brute (fixed db)" test_essential_vs_brute_small_db;
        case "all rules vs brute" test_all_rules_vs_brute;
        case "containing scope" test_rules_containing;
        case "single consequent" test_single_consequent_rules;
        case "redundancy report" test_redundancy_report;
        case "empty antecedent policy" test_essential_with_empty_antecedent;
        QCheck_alcotest.to_alcotest essential_oracle_prop;
        QCheck_alcotest.to_alcotest all_rules_oracle_prop;
        QCheck_alcotest.to_alcotest constrained_rules_oracle_prop;
      ] );
    ( "core.serialize",
      [
        case "roundtrip" test_serialize_roundtrip;
        case "malformed" test_serialize_malformed;
      ] );
    ( "core.engine",
      [
        case "at_threshold" test_engine_at_threshold;
        case "fractional queries" test_engine_queries_fractional;
        case "reverse queries" test_engine_reverse_queries;
        case "preprocess budget" test_engine_preprocess_budget;
        case "save/load" test_engine_save_load;
        case "append" test_engine_append;
        case "validation" test_engine_validation;
      ] );
  ]
