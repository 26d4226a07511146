(* Cross-cutting laws: monotonicity and consistency properties that tie
   several modules together. These are the invariants an analyst relies
   on without thinking — tightening a threshold can only shrink an
   answer, folding data in batches equals folding it at once, etc. *)

open Olar_data
open Olar_core

let conf = Conf.of_float

(* Raising minsup can only shrink the itemset answer, and the smaller
   answer is a subset of the larger. *)
let itemsets_antitone_prop =
  QCheck2.Test.make ~name:"law: itemsets are antitone in minsup" ~count:80
    ~print:(fun (db, (a, b)) ->
      Helpers.db_print db ^ Printf.sprintf " s=%d..%d" a (a + b))
    QCheck2.Gen.(pair Helpers.db_gen (pair (int_range 1 4) (int_range 0 4)))
    (fun (db, (lo, bump)) ->
      let hi = lo + bump in
      let lat = Engine.lattice (Helpers.full_engine db) in
      let at s =
        Itemset.Set.of_list
          (Array.to_list
             (Array.map
                (fun v -> Lattice.itemset lat v)
                (Query.find_itemsets lat ~containing:Itemset.empty ~minsup:s)))
      in
      Itemset.Set.subset (at hi) (at lo))

(* Raising minconf can only shrink the rule answer. *)
let rules_antitone_in_conf_prop =
  QCheck2.Test.make ~name:"law: all rules are antitone in confidence" ~count:60
    ~print:(fun (db, (c1, c2)) ->
      Helpers.db_print db ^ Printf.sprintf " c=%f<=%f" c1 (Float.min 1.0 (c1 +. c2)))
    QCheck2.Gen.(
      pair Helpers.db_gen (pair (float_range 0.1 0.9) (float_range 0.0 0.5)))
    (fun (db, (c_lo, bump)) ->
      let c_hi = Float.min 1.0 (c_lo +. bump) in
      let lat = Engine.lattice (Helpers.full_engine db) in
      let at c =
        List.map Rule.to_string (Rulegen.all_rules lat ~minsup:1 ~confidence:(conf c))
      in
      let strict = at c_hi and loose = at c_lo in
      List.for_all (fun r -> List.mem r loose) strict)

(* Essential rules are always a subset of all rules, and counting
   queries agree with materialising ones. *)
let essential_subset_prop =
  QCheck2.Test.make ~name:"law: essential ⊆ all; counts agree" ~count:60
    ~print:(fun (db, c) -> Helpers.db_print db ^ Printf.sprintf " c=%f" c)
    QCheck2.Gen.(pair Helpers.db_gen (float_range 0.1 1.0))
    (fun (db, c) ->
      let lat = Engine.lattice (Helpers.full_engine db) in
      let all = Rulegen.all_rules lat ~minsup:2 ~confidence:(conf c) in
      let essential = Rulegen.essential_rules lat ~minsup:2 ~confidence:(conf c) in
      let report = Rulegen.redundancy lat ~minsup:2 ~confidence:(conf c) in
      List.for_all (fun r -> List.exists (Rule.equal r) all) essential
      && report.Rulegen.total_rules = List.length all
      && report.Rulegen.essential_count = List.length essential
      && Query.count_itemsets lat ~containing:Itemset.empty ~minsup:2
         = Array.length (Query.find_itemsets lat ~containing:Itemset.empty ~minsup:2))

(* The single-consequent rules are exactly the one-item-consequent slice
   of all rules. *)
let single_consequent_slice_prop =
  QCheck2.Test.make ~name:"law: single-consequent = slice of all rules"
    ~count:60
    ~print:(fun (db, c) -> Helpers.db_print db ^ Printf.sprintf " c=%f" c)
    QCheck2.Gen.(pair Helpers.db_gen (float_range 0.1 1.0))
    (fun (db, c) ->
      let lat = Engine.lattice (Helpers.full_engine db) in
      let all = Rulegen.all_rules lat ~minsup:1 ~confidence:(conf c) in
      let sc = Rulegen.single_consequent_rules lat ~minsup:1 ~confidence:(conf c) in
      List.sort Rule.compare sc
      = List.sort Rule.compare (List.filter Rule.single_consequent all))

(* Serialize/parse is the identity on query behaviour (fuzzed over
   random mined lattices). *)
let serialize_identity_prop =
  QCheck2.Test.make ~name:"law: serialization preserves every query" ~count:50
    ~print:Helpers.db_print Helpers.db_gen
    (fun db ->
      let lat = Engine.lattice (Helpers.full_engine db) in
      let path = Filename.temp_file "olar_law" ".lattice" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Serialize.save lat path;
          let back = Serialize.load path in
          let q l =
            ( Query.to_entries l (Query.find_itemsets l ~containing:Itemset.empty ~minsup:2),
              Rulegen.essential_rules l ~minsup:2 ~confidence:(conf 0.5),
              Lattice.num_edges l,
              Lattice.estimated_bytes l )
          in
          q lat = q back))

(* Folding a delta in two batches equals folding it in one. *)
let append_associative_prop =
  QCheck2.Test.make ~name:"law: append is batch-associative" ~count:50
    ~print:(fun (a, b) -> Helpers.db_print a ^ " / " ^ Helpers.db_print b)
    QCheck2.Gen.(pair Helpers.db_gen Helpers.db_gen)
    (fun (base, extra) ->
      let num_items = Database.num_items base in
      let clip db =
        Database.create ~num_items
          (Array.init (Database.size db) (fun i ->
               Itemset.of_list
                 (List.filter (fun x -> x < num_items)
                    (Itemset.to_list (Database.get db i)))))
      in
      let extra = clip extra in
      let n = Database.size extra in
      QCheck2.assume (n >= 2);
      let half = n / 2 in
      let slice from count =
        Database.create ~num_items
          (Array.init count (fun i -> Database.get extra (from + i)))
      in
      let lat = Engine.lattice (Helpers.full_engine base) in
      let once = (Maintenance.append lat extra).Maintenance.lattice in
      let step1 = (Maintenance.append lat (slice 0 half)).Maintenance.lattice in
      let twice =
        (Maintenance.append step1 (slice half (n - half))).Maintenance.lattice
      in
      Lattice.db_size once = Lattice.db_size twice
      && Array.for_all2
           (fun (x1, c1) (x2, c2) -> Itemset.equal x1 x2 && c1 = c2)
           (Lattice.entries once) (Lattice.entries twice))

(* FindSupport's threshold answer is consistent with FindItemsets. *)
let find_support_consistency_prop =
  QCheck2.Test.make ~name:"law: FindSupport level yields >= k itemsets"
    ~count:80
    ~print:(fun ((db, z), k) ->
      Helpers.db_print db ^ "/" ^ Itemset.to_string z ^ Printf.sprintf " k=%d" k)
    QCheck2.Gen.(pair Helpers.db_and_itemset_gen (int_range 1 10))
    (fun ((db, z), k) ->
      let lat = Engine.lattice (Helpers.full_engine db) in
      match Support_query.find_support lat ~containing:z ~k with
      | { Support_query.support_level = None; itemsets } ->
        List.length itemsets < k
      | { Support_query.support_level = Some level; itemsets } ->
        List.length itemsets = k
        && Query.count_itemsets lat ~containing:z ~minsup:level >= k
        && (level + 1 > Lattice.db_size lat
           || Query.count_itemsets lat ~containing:z ~minsup:(level + 1) < k))

(* Condensed representations nest: maximal ⊆ closed ⊆ frequent. *)
let condense_nesting_prop =
  QCheck2.Test.make ~name:"law: maximal ⊆ closed ⊆ frequent" ~count:80
    ~print:(fun (db, s) -> Helpers.db_print db ^ Printf.sprintf " minsup=%d" s)
    QCheck2.Gen.(pair Helpers.db_gen (int_range 1 5))
    (fun (db, minsup) ->
      let frequent = Olar_mining.Apriori.mine db ~minsup in
      let as_set l = Itemset.Set.of_list (List.map fst l) in
      let maximal = as_set (Olar_mining.Condense.maximal frequent) in
      let closed = as_set (Olar_mining.Condense.closed frequent) in
      Itemset.Set.subset maximal closed
      && Itemset.Set.for_all (fun x -> Olar_mining.Frequent.mem frequent x) closed)

(* Lift/leverage sign agreement: both say "positively correlated" or
   neither does. *)
let lift_leverage_sign_prop =
  QCheck2.Test.make ~name:"law: lift > 1 iff leverage > 0" ~count:60
    ~print:Helpers.db_print Helpers.db_gen
    (fun db ->
      let lat = Engine.lattice (Helpers.full_engine db) in
      let rules = Rulegen.all_rules lat ~minsup:1 ~confidence:(conf 0.05) in
      List.for_all
        (fun r ->
          let m = Interest.measures lat r in
          let eps = 1e-9 in
          (m.Interest.lift > 1.0 +. eps && m.Interest.leverage > 0.0)
          || (m.Interest.lift < 1.0 -. eps && m.Interest.leverage < 0.0)
          || Float.abs (m.Interest.lift -. 1.0) <= eps
             && Float.abs m.Interest.leverage <= eps *. 10.0)
        rules)

(* Promotion frontier soundness: every reported candidate really is
   frequent over old ∪ delta, absent from the old lattice, and minimal. *)
let promotion_soundness_prop =
  QCheck2.Test.make ~name:"law: promotion frontier is sound" ~count:50
    ~print:(fun (a, b) -> Helpers.db_print a ^ " / " ^ Helpers.db_print b)
    QCheck2.Gen.(pair Helpers.db_gen Helpers.db_gen)
    (fun (old_db, delta_raw) ->
      let num_items = Database.num_items old_db in
      let delta =
        Database.create ~num_items
          (Array.init (Database.size delta_raw) (fun i ->
               Itemset.of_list
                 (List.filter (fun x -> x < num_items)
                    (Itemset.to_list (Database.get delta_raw i)))))
      in
      let threshold = 2 in
      let entries =
        Array.of_list (Helpers.brute_frequent old_db ~minsup:threshold)
      in
      let lat =
        Lattice.of_entries ~db_size:(Database.size old_db) ~threshold entries
      in
      let update = Maintenance.append lat delta in
      let merged_count x =
        Database.support_count old_db x + Database.support_count delta x
      in
      List.for_all
        (fun x ->
          merged_count x >= threshold
          && (not (Lattice.mem lat x))
          && List.for_all (fun (_, p) -> Lattice.mem lat p) (Itemset.parents x))
        update.Maintenance.promoted_candidates)

(* The serializer never dies with anything but Malformed on garbage. *)
let serialize_fuzz_prop =
  QCheck2.Test.make ~name:"law: parse rejects garbage with Malformed only"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 12) (string_size (int_range 0 30)))
    (fun lines ->
      match Serialize.parse lines with
      | _ -> true
      | exception Serialize.Malformed _ -> true
      | exception _ -> false)

let db_io_fuzz_prop =
  QCheck2.Test.make ~name:"law: db parser rejects garbage with Malformed only"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 12) (string_size (int_range 0 30)))
    (fun lines ->
      match Db_io.parse lines with
      | _ -> true
      | exception Db_io.Malformed _ -> true
      | exception _ -> false)

(* Byte-budget and count-budget searches agree on monotonicity: both
   thresholds fall when the budget rises. *)
let budget_monotone_prop =
  QCheck2.Test.make ~name:"law: budget searches are antitone in budget"
    ~count:30
    ~print:(fun (db, (a, b)) ->
      Helpers.db_print db ^ Printf.sprintf " n=%d..%d" a (a + b))
    QCheck2.Gen.(pair Helpers.db_gen (pair (int_range 1 30) (int_range 0 50)))
    (fun (db, (n_lo, bump)) ->
      let n_hi = n_lo + bump in
      let thr n =
        (Olar_mining.Threshold.optimized db ~target:n ~slack:0)
          .Olar_mining.Threshold.threshold
      in
      thr n_hi <= thr n_lo)

let suites =
  [
    ( "laws",
      List.map QCheck_alcotest.to_alcotest
        [
          itemsets_antitone_prop;
          rules_antitone_in_conf_prop;
          essential_subset_prop;
          single_consequent_slice_prop;
          serialize_identity_prop;
          append_associative_prop;
          find_support_consistency_prop;
          condense_nesting_prop;
          lift_leverage_sign_prop;
          promotion_soundness_prop;
          serialize_fuzz_prop;
          db_io_fuzz_prop;
          budget_monotone_prop;
        ] );
  ]
