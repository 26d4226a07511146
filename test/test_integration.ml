(* End-to-end integration tests: generate -> preprocess -> query, checked
   against scans and the direct baseline on a synthetic Quest dataset
   large enough to be non-trivial but fast. *)

open Olar_data
open Olar_core

let check = Alcotest.check
let conf = Conf.of_float

let dataset =
  lazy
    (Olar_datagen.Quest.generate
       {
         Olar_datagen.Params.default with
         Olar_datagen.Params.num_items = 100;
         num_potential = 50;
         num_transactions = 2_000;
         avg_transaction_size = 8.0;
         avg_itemset_size = 3.0;
         seed = 123;
       })

let engine = lazy (Engine.at_threshold (Lazy.force dataset) ~primary_support:0.01)

let test_preprocess_counts () =
  let db = Lazy.force dataset in
  let engine = Lazy.force engine in
  check Alcotest.int "db size" 2_000 (Engine.db_size engine);
  check Alcotest.int "primary threshold count" 20
    (Engine.primary_threshold_count engine);
  (* every primary itemset's stored support equals a fresh scan *)
  let lat = Engine.lattice engine in
  Array.iter
    (fun (x, c) ->
      check Alcotest.int ("support of " ^ Itemset.to_string x)
        (Database.support_count db x) c)
    (Lattice.entries lat);
  (* Theorem 2.1 on real mined data *)
  let expected_edges =
    Array.fold_left (fun acc (x, _) -> acc + Itemset.cardinal x) 0 (Lattice.entries lat)
  in
  check Alcotest.int "Theorem 2.1" expected_edges (Lattice.num_edges lat)

let test_online_itemsets_match_direct () =
  let db = Lazy.force dataset in
  let engine = Lazy.force engine in
  List.iter
    (fun minsup_frac ->
      let minsup = Engine.count_of_support engine minsup_frac in
      let direct = Olar_baseline.Direct.query db ~minsup ~confidence:(conf 0.5) in
      let online = Engine.itemsets engine ~minsup:minsup_frac in
      check Alcotest.int
        (Printf.sprintf "itemset count at %.3f" minsup_frac)
        (List.length direct.Olar_baseline.Direct.itemsets)
        (List.length online);
      check Alcotest.int "count query agrees"
        (List.length online)
        (Engine.count_itemsets engine ~minsup:minsup_frac))
    [ 0.01; 0.02; 0.05 ]

let test_online_rules_match_direct () =
  let db = Lazy.force dataset in
  let engine = Lazy.force engine in
  List.iter
    (fun (s, c) ->
      let minsup = Engine.count_of_support engine s in
      let direct = Olar_baseline.Direct.query db ~minsup ~confidence:(conf c) in
      let online = Engine.all_rules engine ~minsup:s ~minconf:c in
      check (Alcotest.list Helpers.rule)
        (Printf.sprintf "all rules at (%.3f, %.2f)" s c)
        direct.Olar_baseline.Direct.rules online)
    [ (0.02, 0.9); (0.03, 0.5) ]

let test_essential_rules_are_essential () =
  (* Definition 4.2, checked by sampling (the full family is too large
     for the O(n²) filter): every essential rule must have no dominator
     in the family, every pruned rule must have one. *)
  let engine = Lazy.force engine in
  let all = Engine.all_rules engine ~minsup:0.05 ~minconf:0.7 in
  let essential = Engine.essential_rules engine ~minsup:0.05 ~minconf:0.7 in
  check Alcotest.bool "strictly fewer than all" true
    (List.length essential < List.length all);
  let all_arr = Array.of_list all in
  let dominated candidate =
    Array.exists
      (fun wrt ->
        (not (Rule.equal candidate wrt)) && Rule.redundant ~candidate ~wrt)
      all_arr
  in
  let essential_set = Hashtbl.create 1024 in
  List.iter (fun r -> Hashtbl.replace essential_set (Rule.to_string r) ()) essential;
  let sample step l = List.filteri (fun i _ -> i mod step = 0) l in
  List.iter
    (fun r ->
      check Alcotest.bool ("not dominated: " ^ Rule.to_string r) false (dominated r))
    (sample 7 essential);
  let pruned =
    List.filter (fun r -> not (Hashtbl.mem essential_set (Rule.to_string r))) all
  in
  check Alcotest.bool "some rules were pruned" true (pruned <> []);
  List.iter
    (fun r ->
      check Alcotest.bool ("dominated: " ^ Rule.to_string r) true (dominated r))
    (sample 97 pruned)

let test_redundancy_ratio_sanity () =
  (* Section 6: on Quest-style data redundancy is substantial and grows
     as support drops. *)
  let engine = Lazy.force engine in
  let at s =
    (Engine.redundancy engine ~minsup:s ~minconf:0.5).Rulegen.redundancy_ratio
  in
  let high = at 0.05 and low = at 0.03 in
  check Alcotest.bool
    (Printf.sprintf "ratio at low support (%.2f) >= at high (%.2f)" low high)
    true (low >= high);
  check Alcotest.bool "redundancy substantial" true (low > 2.0 && high > 2.0)

let test_queries_below_threshold_rejected () =
  let engine = Lazy.force engine in
  try
    ignore (Engine.itemsets engine ~minsup:0.001);
    Alcotest.fail "expected Below_primary_threshold"
  with Query.Below_primary_threshold _ -> ()

let test_preprocess_budgeted_pipeline () =
  let db = Lazy.force dataset in
  let stats = Olar_mining.Stats.create () in
  let engine = Engine.preprocess ~stats db ~max_itemsets:400 in
  check Alcotest.bool "budget respected" true
    (Engine.num_primary_itemsets engine <= 400);
  check Alcotest.bool "did real work" true
    (Olar_util.Timer.Counter.value stats.Olar_mining.Stats.passes > 0);
  (* the lattice answers a query consistently with a scan *)
  let minsup = 2. *. Engine.primary_threshold engine in
  List.iter
    (fun (x, s) ->
      check (Alcotest.float 1e-9)
        ("engine support of " ^ Itemset.to_string x)
        (Database.support db x) s)
    (Engine.itemsets engine ~minsup)

let test_save_load_pipeline () =
  let engine = Lazy.force engine in
  let path = Filename.temp_file "olar" ".lattice" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Engine.save engine path;
      let back = Engine.load path in
      check (Alcotest.list Helpers.rule) "identical essential rules"
        (Engine.essential_rules engine ~minsup:0.02 ~minconf:0.8)
        (Engine.essential_rules back ~minsup:0.02 ~minconf:0.8);
      check Alcotest.int "identical counts"
        (Engine.count_itemsets engine ~minsup:0.015)
        (Engine.count_itemsets back ~minsup:0.015))

let test_reverse_query_consistency () =
  (* FindSupport's answer, fed back to FindItemsets, yields >= k itemsets,
     and the strictly higher next support yields < k. *)
  let engine = Lazy.force engine in
  let lat = Engine.lattice engine in
  let k = 25 in
  match Support_query.find_support lat ~containing:Itemset.empty ~k with
  | { Support_query.support_level = Some level; itemsets } ->
    check Alcotest.int "returned k itemsets" k (List.length itemsets);
    let n_at_level =
      Query.count_itemsets lat ~containing:Itemset.empty ~minsup:level
    in
    check Alcotest.bool "at least k at the level" true (n_at_level >= k);
    let n_above =
      Query.count_itemsets lat ~containing:Itemset.empty ~minsup:(level + 1)
    in
    check Alcotest.bool "fewer than k above the level" true (n_above < k)
  | _ -> Alcotest.fail "expected k itemsets"

let test_work_scales_with_output () =
  (* The paper's headline: online work tracks output size, not lattice
     size. Compare work at a selective query vs a broad one. *)
  let engine = Lazy.force engine in
  let lat = Engine.lattice engine in
  let measure minsup =
    let work = Olar_util.Timer.Counter.create "w" in
    let out = Query.find_itemsets ~work lat ~containing:Itemset.empty ~minsup in
    (Array.length out, Olar_util.Timer.Counter.value work)
  in
  let broad_out, broad_work = measure (Lattice.threshold lat) in
  let narrow_out, narrow_work = measure (max 1 (Lattice.db_size lat / 10)) in
  check Alcotest.bool "narrow output smaller" true (narrow_out < broad_out);
  check Alcotest.bool "narrow work smaller" true (narrow_work < broad_work);
  (* work is linear-ish in output: bounded by vertices + edges touched *)
  check Alcotest.bool "work bounded by output * max degree" true
    (broad_work <= (broad_out + 1) * (Lattice.num_edges lat + 1))

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "integration",
      [
        case "preprocess counts" test_preprocess_counts;
        case "online itemsets = direct" test_online_itemsets_match_direct;
        case "online rules = direct" test_online_rules_match_direct;
        case "essential rules are essential" test_essential_rules_are_essential;
        case "redundancy ratio sanity" test_redundancy_ratio_sanity;
        case "below-threshold rejected" test_queries_below_threshold_rejected;
        case "budgeted preprocess" test_preprocess_budgeted_pipeline;
        case "save/load" test_save_load_pipeline;
        case "reverse query consistency" test_reverse_query_consistency;
        case "work scales with output" test_work_scales_with_output;
      ] );
  ]
