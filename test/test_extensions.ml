(* Tests for the extension modules: the two-pass miners (Partition,
   Sampling), condensed representations, incremental lattice
   maintenance, the bitmap index, named-basket I/O, interestingness
   measures and export formats. *)

open Olar_data
open Olar_core

let check = Alcotest.check
let set = Itemset.of_list
let itemset = Helpers.itemset
let entries = Alcotest.list Helpers.entry

let sorted_frequent f = Helpers.sort_entries (Olar_mining.Frequent.to_list f)

(* ------------------------------------------------------------------ *)
(* Partition *)

let test_partition_matches_apriori () =
  let db = Helpers.small_db () in
  List.iter
    (fun p ->
      let got = Olar_mining.Partition.mine ~num_partitions:p db ~minsup:2 in
      check entries
        (Printf.sprintf "%d partitions" p)
        (Helpers.sort_entries (Helpers.brute_frequent db ~minsup:2))
        (sorted_frequent got);
      check Alcotest.bool "complete" true (Olar_mining.Frequent.complete got))
    [ 1; 2; 3; 4; 10; 100 ]

let test_partition_empty_db () =
  let db = Database.of_lists ~num_items:3 [] in
  let got = Olar_mining.Partition.mine db ~minsup:1 in
  check Alcotest.int "empty" 0 (Olar_mining.Frequent.total got)

let test_partition_validation () =
  let db = Helpers.small_db () in
  Alcotest.check_raises "minsup" (Invalid_argument "Partition.mine: minsup")
    (fun () -> ignore (Olar_mining.Partition.mine db ~minsup:0));
  Alcotest.check_raises "partitions"
    (Invalid_argument "Partition.mine: num_partitions") (fun () ->
      ignore (Olar_mining.Partition.mine ~num_partitions:0 db ~minsup:1))

let partition_oracle_prop =
  QCheck2.Test.make ~name:"partition: equals brute force" ~count:60
    ~print:(fun ((db, p), s) ->
      Helpers.db_print db ^ Printf.sprintf " p=%d minsup=%d" p s)
    QCheck2.Gen.(pair (pair Helpers.db_gen (int_range 1 8)) (int_range 1 6))
    (fun ((db, p), minsup) ->
      let got = Olar_mining.Partition.mine ~num_partitions:p db ~minsup in
      sorted_frequent got = Helpers.sort_entries (Helpers.brute_frequent db ~minsup))

(* ------------------------------------------------------------------ *)
(* Sampling *)

let test_negative_border_simple () =
  (* family over 3 items: {0},{1},{0,1}: border = {2} and nothing else
     ({0,2},{1,2} have the non-member subset {2}). *)
  let border =
    Olar_mining.Sampling.negative_border ~num_items:3
      ~levels:[ [| set [ 0 ]; set [ 1 ] |]; [| set [ 0; 1 ] |] ]
  in
  check (Alcotest.list itemset) "border" [ set [ 2 ] ] border

let test_negative_border_pairs () =
  (* all three singletons, one pair missing: border = the missing pairs *)
  let border =
    Olar_mining.Sampling.negative_border ~num_items:3
      ~levels:[ [| set [ 0 ]; set [ 1 ]; set [ 2 ] |]; [| set [ 0; 1 ] |] ]
  in
  check (Alcotest.list itemset) "missing pairs"
    [ set [ 0; 2 ]; set [ 1; 2 ] ]
    border

let test_negative_border_empty_family () =
  let border = Olar_mining.Sampling.negative_border ~num_items:2 ~levels:[] in
  check (Alcotest.list itemset) "all singletons" [ set [ 0 ]; set [ 1 ] ] border

let test_sampling_exact () =
  let params =
    { Olar_datagen.Params.default with Olar_datagen.Params.num_items = 80;
      num_potential = 30; num_transactions = 1_500; seed = 5 }
  in
  let db = Olar_datagen.Quest.generate params in
  List.iter
    (fun minsup ->
      let report =
        Olar_mining.Sampling.mine ~seed:11 ~sample_fraction:0.3 db ~minsup
      in
      let exact = Olar_mining.Apriori.mine db ~minsup in
      check entries
        (Printf.sprintf "minsup=%d (fell_back=%b misses=%d)" minsup
           report.Olar_mining.Sampling.fell_back report.Olar_mining.Sampling.misses)
        (sorted_frequent exact)
        (sorted_frequent report.Olar_mining.Sampling.result))
    [ 30; 75; 150 ]

let test_sampling_small_db_degenerates () =
  let db = Helpers.small_db () in
  (* sample floor of 100 transactions >= db: degenerate exact path *)
  let report = Olar_mining.Sampling.mine db ~minsup:2 in
  check Alcotest.int "sample is whole db" (Database.size db)
    report.Olar_mining.Sampling.sample_size;
  check entries "still exact"
    (Helpers.sort_entries (Helpers.brute_frequent db ~minsup:2))
    (sorted_frequent report.Olar_mining.Sampling.result)

let test_sampling_validation () =
  let db = Helpers.small_db () in
  Alcotest.check_raises "fraction" (Invalid_argument "Sampling.mine: sample_fraction")
    (fun () -> ignore (Olar_mining.Sampling.mine ~sample_fraction:0.0 db ~minsup:1));
  Alcotest.check_raises "lowering" (Invalid_argument "Sampling.mine: lowering")
    (fun () -> ignore (Olar_mining.Sampling.mine ~lowering:1.5 db ~minsup:1))

let sampling_oracle_prop =
  QCheck2.Test.make ~name:"sampling: always exact" ~count:40
    ~print:(fun ((db, seed), s) ->
      Helpers.db_print db ^ Printf.sprintf " seed=%d minsup=%d" seed s)
    QCheck2.Gen.(pair (pair Helpers.db_gen (int_range 0 1000)) (int_range 1 6))
    (fun ((db, seed), minsup) ->
      let report =
        Olar_mining.Sampling.mine ~seed ~sample_fraction:0.5 db ~minsup
      in
      sorted_frequent report.Olar_mining.Sampling.result
      = Helpers.sort_entries (Helpers.brute_frequent db ~minsup))

(* ------------------------------------------------------------------ *)
(* Condense: maximal and closed itemsets *)

let brute_maximal frequent =
  List.filter
    (fun (x, _) ->
      not
        (List.exists (fun (y, _) -> Itemset.strict_subset x y) frequent))
    frequent

let brute_closed frequent =
  List.filter
    (fun (x, c) ->
      not
        (List.exists
           (fun (y, cy) -> Itemset.strict_subset x y && cy = c)
           frequent))
    frequent

let test_condense_small_db () =
  let db = Helpers.small_db () in
  let frequent = Olar_mining.Apriori.mine db ~minsup:2 in
  let all = Helpers.sort_entries (Olar_mining.Frequent.to_list frequent) in
  check entries "maximal"
    (Helpers.sort_entries (brute_maximal all))
    (Olar_mining.Condense.maximal frequent);
  check entries "closed"
    (Helpers.sort_entries (brute_closed all))
    (Olar_mining.Condense.closed frequent)

let test_condense_requires_complete () =
  let db = Helpers.small_db () in
  let partial = Olar_mining.Apriori.mine db ~max_level:1 ~minsup:2 in
  Alcotest.check_raises "incomplete"
    (Invalid_argument "Condense.maximal: requires a complete mining result")
    (fun () -> ignore (Olar_mining.Condense.maximal partial))

let test_condense_closed_recovers_support () =
  let db = Helpers.small_db () in
  let frequent = Olar_mining.Apriori.mine db ~minsup:2 in
  let closed = Olar_mining.Condense.closed frequent in
  Olar_mining.Frequent.iter
    (fun x c ->
      check (Alcotest.option Alcotest.int) (Itemset.to_string x) (Some c)
        (Olar_mining.Condense.support_from_closed closed x))
    frequent;
  (* an infrequent itemset has no closed superset *)
  check (Alcotest.option Alcotest.int) "infrequent" None
    (Olar_mining.Condense.support_from_closed closed (set [ 3; 4 ]))

let condense_oracle_prop =
  QCheck2.Test.make ~name:"condense: maximal and closed equal brute force"
    ~count:80
    ~print:(fun (db, s) -> Helpers.db_print db ^ Printf.sprintf " minsup=%d" s)
    QCheck2.Gen.(pair Helpers.db_gen (int_range 1 5))
    (fun (db, minsup) ->
      let frequent = Olar_mining.Apriori.mine db ~minsup in
      let all = Helpers.sort_entries (Olar_mining.Frequent.to_list frequent) in
      Olar_mining.Condense.maximal frequent
      = Helpers.sort_entries (brute_maximal all)
      && Olar_mining.Condense.closed frequent
         = Helpers.sort_entries (brute_closed all))

(* ------------------------------------------------------------------ *)
(* Maintenance *)

let test_append_exact_counts () =
  let old_db = Helpers.small_db () in
  let delta =
    Database.of_lists ~num_items:5 [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 3; 4 ]; [ 2 ] ]
  in
  let engine = Engine.at_threshold old_db ~primary_support:0.2 in
  let update = Maintenance.append (Engine.lattice engine) delta in
  check Alcotest.int "delta size" 4 update.Maintenance.delta_size;
  let lat = update.Maintenance.lattice in
  check Alcotest.int "grown db size" 14 (Lattice.db_size lat);
  (* every updated count equals a scan over old ∪ delta *)
  let merged =
    Database.of_lists ~num_items:5
      (List.init 10 (fun i -> Itemset.to_list (Database.get old_db i))
      @ List.init 4 (fun i -> Itemset.to_list (Database.get delta i)))
  in
  Array.iter
    (fun (x, c) ->
      check Alcotest.int ("count of " ^ Itemset.to_string x)
        (Database.support_count merged x)
        c)
    (Lattice.entries lat)

let test_append_promotions () =
  (* {3,4} is infrequent in the old data (count 0... actually 0) but the
     delta pushes it over the threshold: it must be reported. *)
  let old_db = Helpers.small_db () in
  let engine = Engine.at_threshold old_db ~primary_support:0.2 in
  let delta =
    Database.of_lists ~num_items:5 [ [ 3; 4 ]; [ 3; 4 ]; [ 3; 4 ] ]
  in
  let update = Maintenance.append (Engine.lattice engine) delta in
  (* {4} was not primary before (old count 1); the delta makes it
     frequent. The frontier is minimal, so {4} is reported but its
     extension {3,4} is not (its parent is itself new). *)
  check Alcotest.bool "promotion detected" true
    (List.exists (Itemset.equal (set [ 4 ])) update.Maintenance.promoted_candidates);
  check Alcotest.bool "non-minimal not reported" false
    (List.exists (Itemset.equal (set [ 3; 4 ]))
       update.Maintenance.promoted_candidates);
  (* rebuild picks everything up for real *)
  let rebuilt = Maintenance.rebuild ~threshold:2 ~old_db ~delta () in
  check Alcotest.bool "rebuilt contains {4}" true (Lattice.mem rebuilt (set [ 4 ]));
  check Alcotest.bool "rebuilt contains {3,4}" true
    (Lattice.mem rebuilt (set [ 3; 4 ]))

let test_append_no_promotions_small_delta () =
  let old_db = Helpers.small_db () in
  let engine = Engine.at_threshold old_db ~primary_support:0.2 in
  let delta = Database.of_lists ~num_items:5 [ [ 0 ] ] in
  let update = Maintenance.append (Engine.lattice engine) delta in
  check (Alcotest.list itemset) "none" [] update.Maintenance.promoted_candidates

let test_append_queries_stay_consistent () =
  let old_db = Helpers.small_db () in
  let engine = Engine.at_threshold old_db ~primary_support:0.2 in
  let delta = Database.of_lists ~num_items:5 [ [ 0; 1; 2 ]; [ 0; 1; 2 ] ] in
  let update = Maintenance.append (Engine.lattice engine) delta in
  let lat = update.Maintenance.lattice in
  (* the support-monotonicity and closure invariants still hold: a full
     query runs fine and agrees with brute force over the merged data *)
  let merged =
    Database.of_lists ~num_items:5
      (List.init 10 (fun i -> Itemset.to_list (Database.get old_db i))
      @ [ [ 0; 1; 2 ]; [ 0; 1; 2 ] ])
  in
  let got = Query.to_entries lat (Query.find_itemsets lat ~containing:Itemset.empty ~minsup:4) in
  let expected =
    List.filter
      (fun (x, c) -> c >= 4 && Lattice.mem lat x)
      (Helpers.brute_frequent merged ~minsup:4)
  in
  check entries "query over updated lattice"
    (Helpers.sort_entries expected)
    (Helpers.sort_entries got)

let maintenance_prop =
  QCheck2.Test.make ~name:"maintenance: appended counts equal merged scans"
    ~count:50
    ~print:(fun (a, b) -> Helpers.db_print a ^ " ++ " ^ Helpers.db_print b)
    QCheck2.Gen.(pair Helpers.db_gen Helpers.db_gen)
    (fun (old_db, delta_raw) ->
      (* align the delta to the old universe *)
      let num_items = Database.num_items old_db in
      let delta =
        Database.create ~num_items
          (Array.init (Database.size delta_raw) (fun i ->
               Itemset.of_list
                 (List.filter (fun x -> x < num_items)
                    (Itemset.to_list (Database.get delta_raw i)))))
      in
      let entries = Array.of_list (Helpers.brute_frequent old_db ~minsup:1) in
      let lat =
        Lattice.of_entries ~db_size:(Database.size old_db) ~threshold:1 entries
      in
      let update = Maintenance.append lat delta in
      let merged =
        Database.create ~num_items
          (Array.append
             (Array.init (Database.size old_db) (Database.get old_db))
             (Array.init (Database.size delta) (Database.get delta)))
      in
      Array.for_all
        (fun (x, c) -> c = Database.support_count merged x)
        (Lattice.entries update.Maintenance.lattice))

(* [old_db] with every row of [delta] appended, over the wider of the
   two universes. *)
let concat_db old_db delta =
  let rows db =
    List.init (Database.size db) (fun i -> Itemset.to_list (Database.get db i))
  in
  Database.of_lists
    ~num_items:(max (Database.num_items old_db) (Database.num_items delta))
    (rows old_db @ rows delta)

(* The exactness floor: after appends totalling r rows, answers at
   minsup >= threshold + r equal those of a re-mine over old ∪ deltas,
   even though the re-mine may hold itemsets the folded lattice lacks
   (they sit below the floor). *)
let exactness_floor_prop =
  let gen =
    let open QCheck2.Gen in
    let* db = Helpers.db_gen in
    let* threshold = int_range 1 4 in
    let* deltas = list_size (int_range 1 3) (Helpers.delta_gen db) in
    let* containing =
      Helpers.itemset_gen ~num_items:(Database.num_items db)
    in
    let* above = int_range 0 3 in
    let* conf_step = int_range 0 4 in
    return (db, threshold, deltas, containing, above, conf_step)
  in
  QCheck2.Test.make
    ~name:"maintenance: answers at threshold + appended rows = rebuild"
    ~count:100
    ~print:(fun (db, threshold, deltas, containing, above, conf_step) ->
      Format.asprintf
        "%s@ threshold=%d@ deltas [%s]@ containing=%a above=%d conf_step=%d"
        (Helpers.db_print db) threshold
        (String.concat "; " (List.map Helpers.db_print deltas))
        Itemset.pp containing above conf_step)
    gen
    (fun (db, threshold, deltas, containing, above, conf_step) ->
      let lat =
        Lattice.of_entries ~db_size:(Database.size db) ~threshold
          (Array.of_list (Helpers.brute_frequent db ~minsup:threshold))
      in
      let folded =
        List.fold_left
          (fun lat d -> (Maintenance.append lat d).Maintenance.lattice)
          lat deltas
      in
      let delta =
        List.fold_left concat_db (List.hd deltas) (List.tl deltas)
      in
      let rebuilt = Maintenance.rebuild ~threshold ~old_db:db ~delta () in
      let minsup = threshold + Database.size delta + above in
      let confidence =
        Conf.of_float (0.2 +. (0.15 *. float_of_int conf_step))
      in
      let answers lat =
        ( Query.to_entries lat (Query.find_itemsets lat ~containing ~minsup),
          Query.count_itemsets lat ~containing ~minsup,
          Rulegen.essential_rules lat ~containing ~minsup ~confidence,
          Rulegen.all_rules lat ~containing ~minsup ~confidence,
          Rulegen.single_consequent_rules lat ~containing ~minsup ~confidence )
      in
      Lattice.db_size folded = Lattice.db_size rebuilt
      && answers folded = answers rebuilt)

(* ------------------------------------------------------------------ *)
(* Bitmap *)

let test_bitmap_matches_scan () =
  let db = Helpers.small_db () in
  let idx = Bitmap.build db in
  check Alcotest.int "items" 5 (Bitmap.num_items idx);
  check Alcotest.int "transactions" 10 (Bitmap.num_transactions idx);
  List.iter
    (fun x ->
      check Alcotest.int
        (Format.asprintf "support %a" Itemset.pp x)
        (Database.support_count db x) (Bitmap.support_count idx x))
    (Helpers.all_nonempty_itemsets db);
  check Alcotest.int "empty itemset" 10 (Bitmap.support_count idx Itemset.empty);
  Alcotest.check_raises "oob" (Invalid_argument "Bitmap.bitmap") (fun () ->
      ignore (Bitmap.bitmap idx 5))

let bitmap_prop =
  QCheck2.Test.make ~name:"bitmap: support equals full scan" ~count:100
    ~print:(fun (db, x) -> Helpers.db_print db ^ " / " ^ Itemset.to_string x)
    Helpers.db_and_itemset_gen
    (fun (db, x) ->
      Bitmap.support_count (Bitmap.build db) x = Database.support_count db x)

(* ------------------------------------------------------------------ *)
(* Basket_io *)

let test_basket_parse () =
  let vocab, db =
    Basket_io.parse
      [
        "# comment";
        "bread, butter, jam";
        "";
        "coffee,milk";
        "bread , coffee";
      ]
  in
  check Alcotest.int "vocab size" 5 (Item.Vocab.size vocab);
  check Alcotest.int "transactions" 3 (Database.size db);
  let id name = Option.get (Item.Vocab.id vocab name) in
  check itemset "first basket"
    (set [ id "bread"; id "butter"; id "jam" ])
    (Database.get db 0);
  check itemset "third basket" (set [ id "bread"; id "coffee" ]) (Database.get db 2)

let test_basket_roundtrip () =
  let vocab, db =
    Basket_io.parse [ "beer, chips"; "beer"; "salsa, chips, beer" ]
  in
  let path = Filename.temp_file "olar" ".basket" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Basket_io.save vocab db path;
      let vocab2, db2 = Basket_io.load path in
      check Alcotest.int "same size" (Database.size db) (Database.size db2);
      Database.iteri
        (fun tid _txn ->
          let names v d t =
            List.map (Item.Vocab.name v) (Itemset.to_list (Database.get d t))
          in
          check
            (Alcotest.slist Alcotest.string String.compare)
            "same names" (names vocab db tid) (names vocab2 db2 tid))
        db)

let test_basket_malformed () =
  (match Basket_io.parse [ "bread,,milk" ] with
  | exception Basket_io.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed");
  (* empty input is fine: empty database over a 1-item universe floor *)
  let _, db = Basket_io.parse [] in
  check Alcotest.int "empty ok" 0 (Database.size db)

let test_basket_drives_engine () =
  (* end-to-end: named baskets -> engine -> named rules *)
  let vocab, db =
    Basket_io.parse
      (List.concat_map
         (fun _ -> [ "beer, chips"; "beer, chips, salsa"; "water" ])
         (List.init 10 Fun.id))
  in
  let engine = Engine.at_threshold db ~primary_support:0.1 in
  let rules = Engine.essential_rules engine ~minsup:0.3 ~minconf:0.9 in
  check Alcotest.bool "found a beer rule" true
    (List.exists
       (fun r ->
         Itemset.mem (Option.get (Item.Vocab.id vocab "beer")) (Rule.union r))
       rules)

(* ------------------------------------------------------------------ *)
(* Interest *)

let interest_lattice () =
  (* 100 transactions: A=40, B=50, AB=30; C=10, AC=4 *)
  Lattice.of_entries ~db_size:100 ~threshold:2
    [|
      (set [ 0 ], 40); (set [ 1 ], 50); (set [ 2 ], 10);
      (set [ 0; 1 ], 30); (set [ 0; 2 ], 4);
    |]

let test_interest_measures () =
  let lat = interest_lattice () in
  let r =
    Rule.make ~antecedent:(set [ 0 ]) ~consequent:(set [ 1 ]) ~support_count:30
      ~antecedent_count:40
  in
  let m = Interest.measures lat r in
  check (Alcotest.float 1e-9) "support" 0.3 m.Interest.support;
  check (Alcotest.float 1e-9) "confidence" 0.75 m.Interest.confidence;
  check (Alcotest.float 1e-9) "lift" 1.5 m.Interest.lift;
  check (Alcotest.float 1e-9) "leverage" 0.1 m.Interest.leverage;
  check (Alcotest.float 1e-9) "conviction" 2.0 m.Interest.conviction

let test_interest_exact_rule_conviction () =
  let lat = interest_lattice () in
  let r =
    (* pretend exact: support = antecedent *)
    Rule.make ~antecedent:(set [ 2 ]) ~consequent:(set [ 0 ]) ~support_count:4
      ~antecedent_count:4
  in
  let m = Interest.measures lat r in
  check Alcotest.bool "infinite conviction" true
    (m.Interest.conviction = Float.infinity)

let test_interest_filter_sort () =
  let lat = interest_lattice () in
  let ab =
    Rule.make ~antecedent:(set [ 0 ]) ~consequent:(set [ 1 ]) ~support_count:30
      ~antecedent_count:40
  in
  let ac =
    (* conf 0.1, lift 0.1/0.1 = 1.0 *)
    Rule.make ~antecedent:(set [ 0 ]) ~consequent:(set [ 2 ]) ~support_count:4
      ~antecedent_count:40
  in
  check (Alcotest.list Helpers.rule) "filter by lift" [ ab ]
    (Interest.filter_by lat [ ab; ac ] ~min_lift:1.2);
  check (Alcotest.list Helpers.rule) "sort by lift" [ ab; ac ]
    (Interest.sort_by `Lift lat [ ac; ab ]);
  check (Alcotest.list Helpers.rule) "sort by support" [ ab; ac ]
    (Interest.sort_by `Support lat [ ac; ab ])

let test_interest_unprimary () =
  let lat = interest_lattice () in
  let r =
    Rule.make ~antecedent:(set [ 1 ]) ~consequent:(set [ 2 ]) ~support_count:2
      ~antecedent_count:50
  in
  Alcotest.check_raises "consequent... union not primary"
    (Invalid_argument "Interest.measures: consequent not primary") (fun () ->
      ignore
        (Interest.measures
           (Lattice.of_entries ~db_size:100 ~threshold:2 [| (set [ 1 ], 50) |])
           r));
  ignore lat

let interest_lift_symmetry_prop =
  QCheck2.Test.make ~name:"interest: lift is symmetric for single items"
    ~count:60 ~print:Helpers.db_print Helpers.db_gen
    (fun db ->
      let engine = Helpers.full_engine db in
      let lat = Engine.lattice engine in
      let rules =
        Rulegen.single_consequent_rules lat ~minsup:1
          ~confidence:(Conf.of_float 0.01)
      in
      List.for_all
        (fun r ->
          if
            Itemset.cardinal r.Rule.antecedent = 1
            && Itemset.cardinal r.Rule.consequent = 1
          then begin
            let mirror =
              List.find_opt
                (fun r' ->
                  Itemset.equal r'.Rule.antecedent r.Rule.consequent
                  && Itemset.equal r'.Rule.consequent r.Rule.antecedent)
                rules
            in
            match mirror with
            | None -> true (* mirror below confidence floor *)
            | Some r' ->
              abs_float
                ((Interest.measures lat r).Interest.lift
                -. (Interest.measures lat r').Interest.lift)
              < 1e-9
          end
          else true)
        rules)

(* ------------------------------------------------------------------ *)
(* Export *)

let test_export_itemsets_csv () =
  let csv =
    Export.itemsets_to_csv ~db_size:10 [ (set [ 0; 2 ], 4); (set [ 1 ], 6) ]
  in
  let lines = String.split_on_char '\n' (String.trim csv) in
  check Alcotest.int "3 lines" 3 (List.length lines);
  check Alcotest.string "header" "itemset,size,count,support\r"
    (List.nth lines 0);
  check Alcotest.string "row" "0 2,2,4,0.400000\r" (List.nth lines 1)

let test_export_rules_csv_named () =
  let vocab = Item.Vocab.of_names [ "beer"; "chips, salted" ] in
  let r =
    Rule.make ~antecedent:(set [ 0 ]) ~consequent:(set [ 1 ]) ~support_count:3
      ~antecedent_count:4
  in
  let csv = Export.rules_to_csv ~vocab ~db_size:10 [ r ] in
  check Alcotest.bool "name with comma is quoted" true
    (let open String in
     length csv > 0
     &&
     match index_opt csv '"' with
     | Some _ -> true
     | None -> false);
  check Alcotest.bool "contains beer" true
    (Helpers.contains_substring csv "beer")

let test_export_json () =
  let json = Export.itemsets_to_json ~db_size:10 [ (set [ 0; 1 ], 5) ] in
  check Alcotest.string "itemsets json"
    "[{\"items\": [0,1], \"count\": 5, \"support\": 0.5}]\n" json;
  let r =
    Rule.make ~antecedent:(set [ 0 ]) ~consequent:(set [ 1 ]) ~support_count:5
      ~antecedent_count:10
  in
  let json = Export.rules_to_json ~db_size:10 [ r ] in
  check Alcotest.bool "has confidence" true
    (Helpers.contains_substring json "\"confidence\": 0.5");
  let vocab = Item.Vocab.of_names [ "a\"quote"; "b" ] in
  let json = Export.rules_to_json ~vocab ~db_size:10 [ r ] in
  check Alcotest.bool "escapes quotes" true
    (Helpers.contains_substring json "a\\\"quote")

let test_export_with_measures () =
  let lat = interest_lattice () in
  let r =
    Rule.make ~antecedent:(set [ 0 ]) ~consequent:(set [ 1 ]) ~support_count:30
      ~antecedent_count:40
  in
  let csv = Export.rules_to_csv ~measures:lat ~db_size:100 [ r ] in
  check Alcotest.bool "lift column present" true
    (Helpers.contains_substring csv "lift");
  check Alcotest.bool "lift value" true
    (Helpers.contains_substring csv "1.500000");
  let json = Export.rules_to_json ~measures:lat ~db_size:100 [ r ] in
  check Alcotest.bool "json lift" true
    (Helpers.contains_substring json "\"lift\": 1.5")

let test_export_validation () =
  Alcotest.check_raises "db_size" (Invalid_argument "Export.itemsets_to_csv")
    (fun () -> ignore (Export.itemsets_to_csv ~db_size:0 []))

(* ------------------------------------------------------------------ *)
(* Hashtree *)

let test_hashtree_basic () =
  let t = Olar_mining.Hashtree.create ~depth:2 () in
  check Alcotest.int "depth" 2 (Olar_mining.Hashtree.depth t);
  Olar_mining.Hashtree.insert t (set [ 0; 1 ]);
  Olar_mining.Hashtree.insert t (set [ 0; 2 ]);
  Olar_mining.Hashtree.insert t (set [ 0; 1 ]);
  check Alcotest.int "size dedups" 2 (Olar_mining.Hashtree.size t);
  Olar_mining.Hashtree.count_transaction t (set [ 0; 1; 2 ]);
  Olar_mining.Hashtree.count_transaction t (set [ 0; 2 ]);
  check (Alcotest.option Alcotest.int) "count 01" (Some 1)
    (Olar_mining.Hashtree.count t (set [ 0; 1 ]));
  check (Alcotest.option Alcotest.int) "count 02" (Some 2)
    (Olar_mining.Hashtree.count t (set [ 0; 2 ]));
  check (Alcotest.option Alcotest.int) "absent" None
    (Olar_mining.Hashtree.count t (set [ 1; 2 ]));
  Alcotest.check_raises "arity" (Invalid_argument "Hashtree.insert: wrong arity")
    (fun () -> Olar_mining.Hashtree.insert t (set [ 0 ]))

let test_hashtree_splits_hash_collisions () =
  (* fanout 2 with 20 colliding candidates: forces splits and bucket
     collisions; counting must stay exact (stamps prevent the classic
     double-count on multi-path leaf visits). *)
  let t = Olar_mining.Hashtree.create ~fanout:2 ~leaf_capacity:2 ~depth:3 () in
  let candidates = ref [] in
  for a = 0 to 4 do
    for b = a + 1 to 5 do
      for c = b + 1 to 6 do
        let x = set [ a; b; c ] in
        candidates := x :: !candidates;
        Olar_mining.Hashtree.insert t x
      done
    done
  done;
  let txn = set [ 0; 1; 2; 3; 4; 5; 6 ] in
  Olar_mining.Hashtree.count_transaction t txn;
  (* every candidate is a subset of the transaction: counted exactly once *)
  List.iter
    (fun x ->
      check (Alcotest.option Alcotest.int) (Itemset.to_string x) (Some 1)
        (Olar_mining.Hashtree.count t x))
    !candidates;
  Olar_mining.Hashtree.count_transaction t (set [ 0; 1 ]);
  (* too short: nothing changes *)
  check (Alcotest.option Alcotest.int) "short txn ignored" (Some 1)
    (Olar_mining.Hashtree.count t (set [ 0; 1; 2 ]))

let hashtree_equals_trie_prop =
  QCheck2.Test.make ~name:"hashtree: counts equal trie counts" ~count:80
    ~print:Helpers.db_print Helpers.db_gen
    (fun db ->
      let n = Database.num_items db in
      let trie = Olar_mining.Trie.create ~depth:2 in
      let tree = Olar_mining.Hashtree.create ~fanout:3 ~leaf_capacity:2 ~depth:2 () in
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          Olar_mining.Trie.insert trie (set [ a; b ]);
          Olar_mining.Hashtree.insert tree (set [ a; b ])
        done
      done;
      Database.iter
        (fun txn ->
          Olar_mining.Trie.count_transaction trie txn;
          Olar_mining.Hashtree.count_transaction tree txn)
        db;
      Olar_mining.Trie.to_sorted_array trie
      = Olar_mining.Hashtree.to_sorted_array tree)

(* ------------------------------------------------------------------ *)
(* Byte-budget threshold search *)

let test_bytes_estimate_matches_lattice () =
  let db = Helpers.small_db () in
  let frequent = Olar_mining.Apriori.mine db ~minsup:2 in
  let lat =
    Lattice.of_entries ~db_size:(Database.size db) ~threshold:2
      (Array.of_list (Olar_mining.Frequent.to_list frequent))
  in
  check Alcotest.int "estimates agree"
    (Lattice.estimated_bytes lat)
    (Olar_mining.Threshold.estimate_bytes frequent)

let test_bytes_budget_respected () =
  let params =
    { Olar_datagen.Params.default with Olar_datagen.Params.num_items = 100;
      num_potential = 40; num_transactions = 1_000; seed = 21 }
  in
  let db = Olar_datagen.Quest.generate params in
  List.iter
    (fun budget ->
      let r =
        Olar_mining.Threshold.optimized_bytes db ~budget_bytes:budget
          ~slack_bytes:(budget / 10)
      in
      let bytes = Olar_mining.Threshold.estimate_bytes r.Olar_mining.Threshold.itemsets in
      check Alcotest.bool
        (Printf.sprintf "budget %d: %d bytes" budget bytes)
        true (bytes <= budget))
    [ 50_000; 200_000; 1_000_000 ]

let test_bytes_budget_monotone () =
  let db = Helpers.small_db () in
  let thr budget =
    (Olar_mining.Threshold.optimized_bytes db ~budget_bytes:budget
       ~slack_bytes:0)
      .Olar_mining.Threshold.threshold
  in
  check Alcotest.bool "bigger budget, lower threshold" true
    (thr 100_000 <= thr 2_000)

let test_engine_preprocess_bytes () =
  let db = Helpers.small_db () in
  let engine = Engine.preprocess_bytes db ~max_bytes:100_000 in
  check Alcotest.bool "fits" true
    (Lattice.estimated_bytes (Engine.lattice engine) <= 100_000);
  Alcotest.check_raises "bad budget"
    (Invalid_argument "Engine.preprocess_bytes: max_bytes") (fun () ->
      ignore (Engine.preprocess_bytes db ~max_bytes:0))

let bytes_budget_prop =
  QCheck2.Test.make ~name:"byte budget is never exceeded" ~count:40
    ~print:(fun (db, b) -> Helpers.db_print db ^ Printf.sprintf " budget=%d" b)
    QCheck2.Gen.(pair Helpers.db_gen (int_range 2_000 200_000))
    (fun (db, budget) ->
      let r =
        Olar_mining.Threshold.optimized_bytes db ~budget_bytes:budget
          ~slack_bytes:(budget / 10)
      in
      Olar_mining.Threshold.estimate_bytes r.Olar_mining.Threshold.itemsets
      <= budget)

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "mining.partition",
      [
        case "matches apriori" test_partition_matches_apriori;
        case "empty db" test_partition_empty_db;
        case "validation" test_partition_validation;
        QCheck_alcotest.to_alcotest partition_oracle_prop;
      ] );
    ( "mining.sampling",
      [
        case "negative border (pair family)" test_negative_border_simple;
        case "negative border (missing pairs)" test_negative_border_pairs;
        case "negative border (empty family)" test_negative_border_empty_family;
        case "exact on quest data" test_sampling_exact;
        case "degenerate small db" test_sampling_small_db_degenerates;
        case "validation" test_sampling_validation;
        QCheck_alcotest.to_alcotest sampling_oracle_prop;
      ] );
    ( "mining.condense",
      [
        case "small db" test_condense_small_db;
        case "requires complete" test_condense_requires_complete;
        case "closed recovers supports" test_condense_closed_recovers_support;
        QCheck_alcotest.to_alcotest condense_oracle_prop;
      ] );
    ( "core.maintenance",
      [
        case "append exact counts" test_append_exact_counts;
        case "promotions reported" test_append_promotions;
        case "no promotions on small delta" test_append_no_promotions_small_delta;
        case "queries stay consistent" test_append_queries_stay_consistent;
        QCheck_alcotest.to_alcotest maintenance_prop;
        QCheck_alcotest.to_alcotest exactness_floor_prop;
      ] );
    ( "data.bitmap",
      [
        case "matches scan" test_bitmap_matches_scan;
        QCheck_alcotest.to_alcotest bitmap_prop;
      ] );
    ( "data.basket_io",
      [
        case "parse" test_basket_parse;
        case "roundtrip" test_basket_roundtrip;
        case "malformed" test_basket_malformed;
        case "drives the engine" test_basket_drives_engine;
      ] );
    ( "core.interest",
      [
        case "measures" test_interest_measures;
        case "exact-rule conviction" test_interest_exact_rule_conviction;
        case "filter/sort" test_interest_filter_sort;
        case "unprimary rejected" test_interest_unprimary;
        QCheck_alcotest.to_alcotest interest_lift_symmetry_prop;
      ] );
    ( "mining.hashtree",
      [
        case "basic" test_hashtree_basic;
        case "splits and collisions" test_hashtree_splits_hash_collisions;
        QCheck_alcotest.to_alcotest hashtree_equals_trie_prop;
      ] );
    ( "mining.bytes_budget",
      [
        case "estimate matches lattice" test_bytes_estimate_matches_lattice;
        case "budget respected" test_bytes_budget_respected;
        case "monotone in budget" test_bytes_budget_monotone;
        case "engine preprocess_bytes" test_engine_preprocess_bytes;
        QCheck_alcotest.to_alcotest bytes_budget_prop;
      ] );
    ( "core.export",
      [
        case "itemsets csv" test_export_itemsets_csv;
        case "rules csv (named, quoting)" test_export_rules_csv_named;
        case "json" test_export_json;
        case "measures columns" test_export_with_measures;
        case "validation" test_export_validation;
      ] );
  ]
