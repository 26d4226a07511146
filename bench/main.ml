(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Section 6), plus Bechamel micro-benchmarks of the core
   operations and ablations of the design choices called out in
   DESIGN.md.

     dune exec bench/main.exe                 # all experiments, D10K scale
     dune exec bench/main.exe -- --full       # paper scale (D100K)
     dune exec bench/main.exe -- --experiment fig10,table3

   Numbers to compare against the paper are the *shapes*: which curve
   wins, how the threshold bottoms out, the linearity of online time in
   output size — not 1998 wall-clock values. Machine-independent work
   counters are printed alongside times.

   The counts experiment reads no clock: it records exact work and
   minor words per query for the query kernels and the session cache,
   and --json PATH writes them as a counts document (counts.mli), the
   form of the committed BENCH_T10I4.json that @bench-compare gates:

     dune exec bench/main.exe -- --experiment counts --json bench.json *)

open Olar_data

let line () = print_endline (String.make 78 '-')

(* Exact counts (--json PATH): the counts experiment records its points
   here; the driver writes them as one counts document at the end. *)
let json_path : string option ref = ref None
let counted : Counts.point list ref = ref []

let section title =
  print_newline ();
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Configuration *)

type config = {
  full : bool;
  num_items : int;
  transactions : int;
  budget_sweep : int list; (* itemset budgets for figs 8-9 *)
  seed : int;
  domains : int option; (* parallel counting domains for preprocessing *)
}

let default_config =
  {
    full = false;
    num_items = 1000;
    transactions = 10_000;
    budget_sweep = [ 500; 1_000; 2_000; 5_000; 10_000; 15_000 ];
    seed = 42;
    domains = None;
  }

let full_config =
  {
    full = true;
    num_items = 1000;
    transactions = 100_000;
    budget_sweep = [ 1_000; 2_000; 5_000; 10_000; 20_000; 50_000 ];
    seed = 42;
    domains = None;
  }

(* ------------------------------------------------------------------ *)
(* Dataset and engine caches (several experiments share them) *)

let db_cache : (string, Database.t) Hashtbl.t = Hashtbl.create 8

let dataset config ~t ~i =
  let params =
    {
      (Olar_datagen.Params.make ~avg_transaction_size:(float_of_int t)
         ~avg_itemset_size:(float_of_int i) ~num_transactions:config.transactions
         ())
      with
      Olar_datagen.Params.num_items = config.num_items;
      seed = config.seed;
    }
  in
  let name = Olar_datagen.Params.name params in
  match Hashtbl.find_opt db_cache name with
  | Some db -> (name, db)
  | None ->
    let db, dt = Olar_util.Timer.time (fun () -> Olar_datagen.Quest.generate params) in
    Printf.printf "[data] generated %s in %.2fs (avg transaction %.1f items)\n%!"
      name dt (Database.avg_transaction_size db);
    Hashtbl.add db_cache name db;
    (name, db)

let engine_cache : (string * float, Olar_core.Engine.t) Hashtbl.t = Hashtbl.create 8

(* Preprocessed engine over a dataset at a fractional primary support. *)
let engine config ~t ~i ~primary =
  let name, db = dataset config ~t ~i in
  match Hashtbl.find_opt engine_cache (name, primary) with
  | Some e -> e
  | None ->
    let e, dt =
      Olar_util.Timer.time (fun () ->
          Olar_core.Engine.at_threshold ?domains:config.domains db
            ~primary_support:primary)
    in
    Printf.printf
      "[prep] %s preprocessed at %.3f%%: %d itemsets, %d edges (%.2fs)\n%!" name
      (100.0 *. primary)
      (Olar_core.Engine.num_primary_itemsets e)
      (Olar_core.Lattice.num_edges (Olar_core.Engine.lattice e))
      dt;
    Hashtbl.add engine_cache (name, primary) e;
    e

(* ------------------------------------------------------------------ *)
(* Figures 8 & 9: primary threshold and preprocessing effort vs the
   number of itemsets prestored. One threshold search serves both. *)

type sweep_point = {
  budget : int;
  threshold_pct : float;
  generated : int;
  probes : int;
  work : int; (* candidates counted + hash-pruned: machine-independent *)
  seconds : float;
}

let sweep_cache : (string * int, sweep_point) Hashtbl.t = Hashtbl.create 32

let sweep_point config ~t ~i ~budget =
  let name, db = dataset config ~t ~i in
  match Hashtbl.find_opt sweep_cache (name, budget) with
  | Some p -> p
  | None ->
    let stats = Olar_mining.Stats.create () in
    let result, seconds =
      Olar_util.Timer.time (fun () ->
          Olar_mining.Threshold.optimized ~stats db ~target:budget
            ~slack:(budget / 20))
    in
    let p =
      {
        budget;
        threshold_pct =
          100.0
          *. float_of_int result.Olar_mining.Threshold.threshold
          /. float_of_int (Database.size db);
        generated = Olar_mining.Frequent.total result.Olar_mining.Threshold.itemsets;
        probes = List.length result.Olar_mining.Threshold.probes;
        work = Olar_mining.Stats.total_work stats;
        seconds;
      }
    in
    Hashtbl.add sweep_cache (name, budget) p;
    p

let fig89_datasets = [ (10, 4); (10, 6); (20, 6) ]

let fig8 config =
  List.iter (fun (t, i) -> ignore (dataset config ~t ~i)) fig89_datasets;
  section
    "Figure 8: primary threshold vs number of itemsets prestored\n\
     (threshold drops steeply, then bottoms out as the itemset space is exhausted)";
  Printf.printf "%-10s" "budget N";
  List.iter
    (fun (t, i) -> Printf.printf "%16s" (fst (dataset config ~t ~i)))
    fig89_datasets;
  print_newline ();
  List.iter
    (fun budget ->
      Printf.printf "%-10d" budget;
      List.iter
        (fun (t, i) ->
          let p = sweep_point config ~t ~i ~budget in
          Printf.printf "%15.4f%%" p.threshold_pct)
        fig89_datasets;
      print_newline ())
    config.budget_sweep

let fig9 config =
  List.iter (fun (t, i) -> ignore (dataset config ~t ~i)) fig89_datasets;
  section
    "Figure 9: preprocessing effort vs number of itemsets prestored\n\
     (effort = candidates examined by the threshold search; seconds in parens)";
  Printf.printf "%-10s" "budget N";
  List.iter
    (fun (t, i) -> Printf.printf "%22s" (fst (dataset config ~t ~i)))
    fig89_datasets;
  print_newline ();
  List.iter
    (fun budget ->
      Printf.printf "%-10d" budget;
      List.iter
        (fun (t, i) ->
          let p = sweep_point config ~t ~i ~budget in
          Printf.printf "%14d (%5.2fs)" p.work p.seconds)
        fig89_datasets;
      print_newline ())
    config.budget_sweep

(* ------------------------------------------------------------------ *)
(* Figure 10: online processing time vs number of rules generated. *)

let fig10 config =
  section
    "Figure 10: online running time vs number of rules generated\n\
     (response time and search work scale with the output, not the prestore)";
  Printf.printf "%-14s %-9s %-7s %-9s %-11s %-10s %-12s\n" "dataset" "minsup%"
    "conf%" "rules" "time (ms)" "work" "us per rule";
  List.iter
    (fun ((t, i), primary, supports) ->
      let name, _ = dataset config ~t ~i in
      let e = engine config ~t ~i ~primary in
      let lat = Olar_core.Engine.lattice e in
      let points = ref [] in
      List.iter
        (fun minsup ->
          List.iter
            (fun minconf ->
              let work = Olar_util.Timer.Counter.create "work" in
              let rules, dt =
                Olar_util.Timer.time (fun () ->
                    Olar_core.Rulegen.essential_rules ~work lat
                      ~minsup:(Olar_core.Engine.count_of_support e minsup)
                      ~confidence:(Olar_core.Conf.of_float minconf))
              in
              points :=
                (minsup, minconf, List.length rules, dt,
                 Olar_util.Timer.Counter.value work)
                :: !points)
            [ 0.9; 0.7; 0.5 ])
        supports;
      let points =
        List.sort (fun (_, _, a, _, _) (_, _, b, _, _) -> Int.compare a b) !points
      in
      List.iter
        (fun (s, c, n, dt, w) ->
          Printf.printf "%-14s %-9.3f %-7.0f %-9d %-11.3f %-10d %-12.2f\n" name
            (100.0 *. s) (100.0 *. c) n (1000.0 *. dt) w
            (if n = 0 then 0.0 else 1e6 *. dt /. float_of_int n))
        points)
    [
      ((10, 4), 0.002, [ 0.006; 0.005; 0.004; 0.003; 0.0025; 0.002 ]);
      ((20, 6), 0.005, [ 0.014; 0.012; 0.01; 0.008; 0.007; 0.006 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Table 3: direct DHP-from-scratch vs online response time. *)

let table3 config =
  section
    "Table 3: response time, DHP from scratch vs online lattice queries\n\
     (the online column answers from the preprocessed lattice alone)";
  Printf.printf "%-14s %-6s %-7s %-12s %-12s %-9s %-8s\n" "dataset" "conf%"
    "sup%" "DHP (s)" "online (s)" "speedup" "rules";
  let rows =
    (* the paper's four (dataset, confidence) settings; supports keep the
       paper's 3:3:2:5 proportions, lifted so the default-scale outputs
       stay tabular (the planted patterns are denser than the authors') *)
    [ (10, 4, 0.9, 0.0045); (10, 6, 0.9, 0.0045); (20, 4, 0.9, 0.003); (20, 6, 0.9, 0.0075) ]
  in
  List.iter
    (fun (t, i, minconf, minsup) ->
      let name, db = dataset config ~t ~i in
      (* preprocess once at half the query support *)
      let e = engine config ~t ~i ~primary:(0.6 *. minsup) in
      let minsup_count = Database.count_of_fraction db minsup in
      let direct =
        Olar_baseline.Direct.query db ~minsup:minsup_count
          ~confidence:(Olar_core.Conf.of_float minconf)
      in
      let direct_s =
        direct.Olar_baseline.Direct.mining_seconds
        +. direct.Olar_baseline.Direct.rulegen_seconds
      in
      let rules, online_s =
        Olar_util.Timer.time (fun () ->
            Olar_core.Engine.essential_rules e ~minsup ~minconf)
      in
      Printf.printf "%-14s %-6.0f %-7.2f %-12.3f %-12.5f %8.0fx %-8d\n" name
        (100.0 *. minconf) (100.0 *. minsup) direct_s online_s
        (direct_s /. max 1e-9 online_s)
        (List.length rules))
    rows

(* ------------------------------------------------------------------ *)
(* Figures 11 & 12: redundancy ratio vs confidence and support. *)

let fig11 config =
  List.iter
    (fun (t, i) -> ignore (engine config ~t ~i ~primary:0.0025))
    [ (10, 4); (10, 6) ];
  section
    "Figure 11: redundancy ratio vs confidence (fixed minsup)\n\
     (total rules / essential rules; modest sensitivity to confidence)";
  let minsup = 0.005 in
  Printf.printf "%-8s" "conf%";
  List.iter
    (fun (t, i) -> Printf.printf "%28s" (fst (dataset config ~t ~i)))
    [ (10, 4); (10, 6) ];
  Printf.printf "\n%-8s%28s%28s\n" "" "total/essential (ratio)" "total/essential (ratio)";
  List.iter
    (fun conf ->
      Printf.printf "%-8.0f" (100.0 *. conf);
      List.iter
        (fun (t, i) ->
          let e = engine config ~t ~i ~primary:0.0025 in
          let r = Olar_core.Engine.redundancy e ~minsup ~minconf:conf in
          Printf.printf "%15d/%-5d (%5.2f)" r.Olar_core.Rulegen.total_rules
            r.Olar_core.Rulegen.essential_count
            r.Olar_core.Rulegen.redundancy_ratio)
        [ (10, 4); (10, 6) ];
      print_newline ())
    [ 0.95; 0.9; 0.8; 0.7; 0.6; 0.5 ]

let fig12 config =
  List.iter
    (fun (t, i) -> ignore (engine config ~t ~i ~primary:0.0025))
    [ (10, 4); (10, 6) ];
  section
    "Figure 12: redundancy ratio vs support (fixed minconf = 50%)\n\
     (redundancy is much more sensitive to support: it grows as support drops)";
  Printf.printf "%-10s" "minsup%";
  List.iter
    (fun (t, i) -> Printf.printf "%28s" (fst (dataset config ~t ~i)))
    [ (10, 4); (10, 6) ];
  Printf.printf "\n%-10s%28s%28s\n" "" "total/essential (ratio)" "total/essential (ratio)";
  List.iter
    (fun minsup ->
      Printf.printf "%-10.3f" (100.0 *. minsup);
      List.iter
        (fun (t, i) ->
          let e = engine config ~t ~i ~primary:0.0025 in
          let r = Olar_core.Engine.redundancy e ~minsup ~minconf:0.5 in
          Printf.printf "%15d/%-5d (%5.2f)" r.Olar_core.Rulegen.total_rules
            r.Olar_core.Rulegen.essential_count
            r.Olar_core.Rulegen.redundancy_ratio)
        [ (10, 4); (10, 6) ];
      print_newline ())
    [ 0.008; 0.007; 0.006; 0.005; 0.0045; 0.004 ]

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 4) *)

(* Ablation 1: the children-sorted-by-support invariant. The search
   normally stops scanning a child list at the first child below the
   cut; the ablated variant must examine every child. *)
let ablate_sort config =
  section
    "Ablation: early-stop on support-sorted child lists (FindItemsets)\n\
     (work = vertices expanded + child links inspected)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  let search_all_children ~minsup =
    (* identical traversal, no early stop *)
    let marks = Olar_core.Lattice.fresh_marks lat in
    let stack = ref [ Olar_core.Lattice.root lat ] in
    let work = ref 0 and out = ref 0 in
    Olar_util.Bitset.add marks (Olar_core.Lattice.root lat);
    let rec loop () =
      match !stack with
      | [] -> ()
      | v :: rest ->
        stack := rest;
        incr work;
        Array.iter
          (fun child ->
            incr work;
            if
              Olar_core.Lattice.support lat child >= minsup
              && not (Olar_util.Bitset.mem marks child)
            then begin
              Olar_util.Bitset.add marks child;
              incr out;
              stack := child :: !stack
            end)
          (Olar_core.Lattice.children lat v);
        loop ()
    in
    loop ();
    (!out, !work)
  in
  Printf.printf "%-10s %-9s %-14s %-14s %-8s\n" "minsup%" "output"
    "work (sorted)" "work (ablated)" "saving";
  List.iter
    (fun minsup_pct ->
      let minsup =
        Olar_core.Engine.count_of_support e (minsup_pct /. 100.0)
      in
      let work = Olar_util.Timer.Counter.create "w" in
      let out =
        Olar_core.Query.count_itemsets ~work lat ~containing:Itemset.empty ~minsup
      in
      let out_ablated, work_ablated = search_all_children ~minsup in
      assert (out = out_ablated);
      let sorted_work = Olar_util.Timer.Counter.value work in
      Printf.printf "%-10.2f %-9d %-14d %-14d %7.1f%%\n" minsup_pct out
        sorted_work work_ablated
        (100.0 *. (1.0 -. (float_of_int sorted_work /. float_of_int work_ablated))))
    [ 1.0; 0.5; 0.3; 0.2 ]

(* Ablation 2: boundary memoisation during essential-rule generation.
   The ablated variant recomputes each child boundary for every parent. *)
let ablate_cache config =
  section
    "Ablation: boundary caching in essential-rule generation\n\
     (the child boundary is reused for rule output and parent pruning)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  let uncached ~minsup ~confidence =
    let large =
      Olar_core.Query.find_itemsets lat ~containing:Itemset.empty ~minsup
    in
    let n = ref 0 in
    Array.iter
      (fun x ->
        if Olar_core.Lattice.cardinal lat x >= 2 then begin
          let own =
            Olar_core.Boundary.find_boundary lat ~target:x ~confidence
          in
          if own <> [] then begin
            let pruned = Hashtbl.create 16 in
            Array.iter
              (fun child ->
                if Olar_core.Lattice.support lat child >= minsup then
                  List.iter
                    (fun y -> Hashtbl.replace pruned y ())
                    (Olar_core.Boundary.find_boundary lat ~target:child
                       ~confidence))
              (Olar_core.Lattice.children lat x);
            List.iter (fun y -> if not (Hashtbl.mem pruned y) then incr n) own
          end
        end)
      large;
    !n
  in
  Printf.printf "%-10s %-8s %-14s %-16s\n" "minsup%" "rules" "cached (ms)"
    "uncached (ms)";
  List.iter
    (fun minsup_pct ->
      let minsup = Olar_core.Engine.count_of_support e (minsup_pct /. 100.0) in
      let confidence = Olar_core.Conf.of_float 0.5 in
      let rules, cached_s =
        Olar_util.Timer.time (fun () ->
            Olar_core.Rulegen.essential_rules lat ~minsup ~confidence)
      in
      let n, uncached_s =
        Olar_util.Timer.time (fun () -> uncached ~minsup ~confidence)
      in
      assert (n = List.length rules);
      Printf.printf "%-10.2f %-8d %-14.2f %-16.2f\n" minsup_pct n
        (1000.0 *. cached_s) (1000.0 *. uncached_s))
    [ 0.5; 0.3; 0.2 ]

(* Ablation 3: DHP's hash filter and trimming vs plain Apriori as the
   preprocessing subroutine. *)
let ablate_miner config =
  section
    "Ablation: DHP hash filtering + trimming vs plain Apriori (preprocessing)";
  Printf.printf "%-14s %-10s %-12s %-12s %-12s %-12s\n" "dataset" "minsup%"
    "apriori (s)" "dhp (s)" "cand (apr)" "cand (dhp)";
  List.iter
    (fun ((t, i), minsup_pct) ->
      let name, db = dataset config ~t ~i in
      let minsup = Database.count_of_fraction db (minsup_pct /. 100.0) in
      let sa = Olar_mining.Stats.create () and sd = Olar_mining.Stats.create () in
      let fa, ta =
        Olar_util.Timer.time (fun () -> Olar_mining.Apriori.mine ~stats:sa db ~minsup)
      in
      let fd, td =
        Olar_util.Timer.time (fun () -> Olar_mining.Dhp.mine ~stats:sd db ~minsup)
      in
      assert (Olar_mining.Frequent.total fa = Olar_mining.Frequent.total fd);
      Printf.printf "%-14s %-10.2f %-12.2f %-12.2f %-12d %-12d\n" name minsup_pct
        ta td
        (Olar_util.Timer.Counter.value sa.Olar_mining.Stats.candidates)
        (Olar_util.Timer.Counter.value sd.Olar_mining.Stats.candidates))
    [ ((10, 4), 0.2); ((10, 6), 0.2); ((20, 6), 0.3) ]

(* ------------------------------------------------------------------ *)
(* Scaling: the online claim of contribution (1) — response time is
   independent of the size of the transaction data. The direct approach
   scans the database per query; the lattice query does not. *)

let scaling config =
  section
    "Scaling: online response vs database size (fixed support fractions)\n\
     (direct mining grows with |D|; the online query tracks only its output)";
  Printf.printf "%-10s %-9s %-11s %-12s %-13s %-9s\n" "txns" "prep (s)"
    "direct (s)" "online (ms)" "rules" "us/rule";
  let sizes =
    if config.full then [ 20_000; 50_000; 100_000; 200_000 ]
    else [ 2_000; 5_000; 10_000; 20_000 ]
  in
  List.iter
    (fun transactions ->
      let params =
        {
          (Olar_datagen.Params.make ~avg_transaction_size:10.0
             ~avg_itemset_size:4.0 ~num_transactions:transactions ())
          with
          Olar_datagen.Params.num_items = config.num_items;
          seed = config.seed;
        }
      in
      let db = Olar_datagen.Quest.generate params in
      let engine, prep_s =
        Olar_util.Timer.time (fun () ->
            Olar_core.Engine.at_threshold ?domains:config.domains db
              ~primary_support:0.003)
      in
      let minsup = 0.005 and minconf = 0.9 in
      let direct, direct_s =
        Olar_util.Timer.time (fun () ->
            Olar_mining.Dhp.mine db
              ~minsup:(Database.count_of_fraction db minsup))
      in
      ignore direct;
      let rules, online_s =
        Olar_util.Timer.time (fun () ->
            Olar_core.Engine.essential_rules engine ~minsup ~minconf)
      in
      let n = List.length rules in
      Printf.printf "%-10d %-9.2f %-11.3f %-13.3f %-13d %-9.2f\n" transactions
        prep_s direct_s (1000.0 *. online_s) n
        (if n = 0 then 0.0 else 1e6 *. online_s /. float_of_int n))
    sizes

(* Two-pass miners vs the level-wise ones: all four produce identical
   output; they differ in passes and candidate volume. *)

let miners config =
  section
    "Miners: Apriori vs DHP vs Partition vs Sampling vs FP-Growth\n\
     (identical outputs; time, passes and candidate counts differ)";
  Printf.printf "%-14s %-10s %-11s %-9s %-12s %-10s\n" "dataset" "miner"
    "time (s)" "passes" "candidates" "frequent";
  List.iter
    (fun ((t, i), minsup_pct) ->
      let name, db = dataset config ~t ~i in
      let minsup = Database.count_of_fraction db (minsup_pct /. 100.0) in
      let expected = ref (-1) in
      List.iter
        (fun (label, run) ->
          let stats = Olar_mining.Stats.create () in
          let frequent, seconds = Olar_util.Timer.time (fun () -> run stats) in
          let total = Olar_mining.Frequent.total frequent in
          if !expected < 0 then expected := total;
          assert (total = !expected);
          Printf.printf "%-14s %-10s %-11.2f %-9d %-12d %-10d\n" name label
            seconds
            (Olar_util.Timer.Counter.value stats.Olar_mining.Stats.passes)
            (Olar_util.Timer.Counter.value stats.Olar_mining.Stats.candidates)
            total)
        [
          ("apriori", fun stats -> Olar_mining.Apriori.mine ~stats db ~minsup);
          ("dhp", fun stats -> Olar_mining.Dhp.mine ~stats db ~minsup);
          ("partition", fun stats -> Olar_mining.Partition.mine ~stats db ~minsup);
          ( "sampling",
            fun stats ->
              (Olar_mining.Sampling.mine ~stats ~seed:config.seed db ~minsup)
                .Olar_mining.Sampling.result );
          ("fpgrowth", fun stats -> Olar_mining.Fpgrowth.mine ~stats db ~minsup);
        ])
    [ ((10, 4), 0.3); ((10, 6), 0.3) ]

(* Ablation: FindSupport's best-first search vs enumerate-everything-
   and-sort. The heap answers top-k touching only slightly more than the
   k strongest vertices; the naive route must materialise the whole
   reachable set. *)
let ablate_bestfirst config =
  section
    "Ablation: FindSupport best-first vs enumerate-and-sort (top-k query)\n\
     (work = vertices + links touched; lattice holds every primary itemset)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  Printf.printf "lattice: %d itemsets\n" (Olar_core.Lattice.num_vertices lat - 1);
  Printf.printf "%-8s %-18s %-18s %-10s\n" "k" "work (best-first)"
    "work (enumerate)" "saving";
  List.iter
    (fun k ->
      let work = Olar_util.Timer.Counter.create "w" in
      let answer =
        Olar_core.Support_query.find_support ~work lat
          ~containing:Olar_data.Itemset.empty ~k
      in
      assert (List.length answer.Olar_core.Support_query.itemsets = k);
      let best_first = Olar_util.Timer.Counter.value work in
      (* the naive route: touch everything, sort, take k *)
      let work_all = Olar_util.Timer.Counter.create "w" in
      let all =
        Olar_core.Query.find_itemsets ~work:work_all lat
          ~containing:Olar_data.Itemset.empty
          ~minsup:(Olar_core.Lattice.threshold lat)
      in
      ignore (Array.sub all 0 (min k (Array.length all)));
      let enumerate = Olar_util.Timer.Counter.value work_all in
      Printf.printf "%-8d %-18d %-18d %8.1f%%\n" k best_first enumerate
        (100.0 *. (1.0 -. (float_of_int best_first /. float_of_int enumerate))))
    [ 10; 100; 1000; 5000 ]

(* Ablation 4: counting structure — prefix trie vs the original Apriori
   hash tree. Same counts by construction; different memory traffic. *)
let ablate_counting config =
  section
    "Ablation: candidate counting, prefix trie vs hash tree\n\
     (level-2 candidates of T10.I4 counted over the whole database)";
  let _, db = dataset config ~t:10 ~i:4 in
  let minsup = Database.count_of_fraction db 0.002 in
  let l1 =
    let freq = Database.item_frequencies db in
    let out = ref [] in
    Array.iteri (fun i c -> if c >= minsup then out := i :: !out) freq;
    Array.of_list (List.sort Int.compare !out)
  in
  let candidates = Olar_mining.Candidate.pairs_of_items l1 in
  Printf.printf "%d frequent items -> %d candidate pairs\n" (Array.length l1)
    (Array.length candidates);
  let time_trie () =
    let trie = Olar_mining.Trie.create ~depth:2 in
    Array.iter (Olar_mining.Trie.insert trie) candidates;
    let _, dt =
      Olar_util.Timer.time (fun () ->
          Database.iter (Olar_mining.Trie.count_transaction trie) db)
    in
    (Olar_mining.Trie.to_sorted_array trie, dt)
  in
  let time_hashtree () =
    let tree = Olar_mining.Hashtree.create ~fanout:128 ~leaf_capacity:32 ~depth:2 () in
    Array.iter (Olar_mining.Hashtree.insert tree) candidates;
    let _, dt =
      Olar_util.Timer.time (fun () ->
          Database.iter (Olar_mining.Hashtree.count_transaction tree) db)
    in
    (Olar_mining.Hashtree.to_sorted_array tree, dt)
  in
  let trie_counts, trie_s = time_trie () in
  let tree_counts, tree_s = time_hashtree () in
  assert (trie_counts = tree_counts);
  Printf.printf "prefix trie: %.3fs   hash tree: %.3fs   (identical counts)\n"
    trie_s tree_s

(* ------------------------------------------------------------------ *)
(* Exact work counts. The paper's online claim is about work: a query
   visits vertices in proportion to its output, whatever the machine.
   On one preprocessed D10K lattice this records that work, and the
   minor words each query allocates, for the CSR query kernels and for
   Zipf-repeated query streams through the session cache. Fixed query
   counts, no clocks: every number repeats exactly across processes
   built by one compiler, so @bench-compare gates them exactly against
   BENCH_T10I4.json. *)

let kernel_queries = 256
let cached_queries = 1024
let uncached_queries = 64

let kernel_scenarios e lat =
  (* one shared scratch: the steady state of a long-lived session *)
  let scratch = Olar_core.Scratch.create lat in
  (* primary singletons, reused round-robin for the targeted mix *)
  let singles = Olar_util.Vec.create () in
  Olar_core.Lattice.iter_vertices
    (fun v ->
      if Olar_core.Lattice.cardinal lat v = 1 then Olar_util.Vec.push singles v)
    lat;
  let single k =
    Olar_core.Lattice.itemset lat
      (Olar_util.Vec.get singles (k mod Olar_util.Vec.length singles))
  in
  let minsup_of pct = Olar_core.Engine.count_of_support e (pct /. 100.0) in
  [
    ( "count broad 0.5%",
      fun ?work k ->
        ignore k;
        ignore
          (Olar_core.Query.count_itemsets ?work ~scratch lat
             ~containing:Itemset.empty ~minsup:(minsup_of 0.5)) );
    ( "find broad 0.25%",
      fun ?work k ->
        ignore k;
        ignore
          (Olar_core.Query.find_itemsets ?work ~scratch lat
             ~containing:Itemset.empty ~minsup:(minsup_of 0.25)) );
    ( "find targeted",
      fun ?work k ->
        ignore
          (Olar_core.Query.find_itemsets ?work ~scratch lat
             ~containing:(single k)
             ~minsup:(Olar_core.Lattice.threshold lat)) );
    ( "top-100 support",
      fun ?work k ->
        ignore
          (Olar_core.Support_query.find_support ?work ~scratch lat
             ~containing:(single k) ~k:100) );
  ]

(* An analyst re-issues a handful of favourite (minsup, minconf)
   settings with a skewed repeat distribution: setting rank r is drawn
   with Zipf weight 1/(r+1), so a few favourites dominate and the tail
   recurs rarely. The streams are drawn once, so every budget replays
   the identical sequence. *)
let zipf_streams config =
  let zipf_stream st settings =
    let n = Array.length settings in
    let cum = Array.make n 0.0 in
    let total = ref 0.0 in
    for r = 0 to n - 1 do
      total := !total +. (1.0 /. float_of_int (r + 1));
      cum.(r) <- !total
    done;
    Array.init cached_queries (fun _ ->
        let u = Random.State.float st !total in
        let rec pick r =
          if r = n - 1 || u <= cum.(r) then settings.(r) else pick (r + 1)
        in
        pick 0)
  in
  let rng = Random.State.make [| config.seed; 0x5355 |] in
  let find_stream =
    zipf_stream rng [| 0.004; 0.0025; 0.005; 0.003; 0.0075; 0.01 |]
  in
  let rule_stream =
    zipf_stream rng
      (Array.of_list
         (List.concat_map
            (fun s -> List.map (fun c -> (s, c)) [ 0.9; 0.7; 0.5 ])
            [ 0.0075; 0.005; 0.01 ]))
  in
  [
    ( "find broad",
      fun session k ->
        ignore (Olar_serve.Session.itemset_ids session ~minsup:find_stream.(k))
    );
    ( "rules",
      fun session k ->
        let minsup, minconf = rule_stream.(k) in
        ignore (Olar_serve.Session.essential_rules session ~minsup ~minconf) );
  ]

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let counts config =
  section
    "Exact work counts per query: kernels and session-cache streams\n\
     (machine-independent; gated exactly by @bench-compare)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  let record workload metric value =
    Printf.printf "%-28s %-22s %.12g\n" workload metric value;
    counted := { Counts.workload; metric; value } :: !counted
  in
  let size f = float_of_int (f lat) in
  record "lattice" "vertices" (size Olar_core.Lattice.num_vertices);
  record "lattice" "edges" (size Olar_core.Lattice.num_edges);
  record "lattice" "bytes" (size Olar_core.Lattice.estimated_bytes);
  let per n x = x /. float_of_int n in
  List.iter
    (fun (name, (run : ?work:Olar_util.Timer.Counter.t -> int -> unit)) ->
      for k = 0 to 9 do
        run k
      done;
      let work = Olar_util.Timer.Counter.create "work" in
      let words =
        minor_words (fun () ->
            for k = 0 to kernel_queries - 1 do
              run ~work k
            done)
      in
      let workload = "kernel/" ^ name in
      record workload "work_per_query"
        (per kernel_queries
           (float_of_int (Olar_util.Timer.Counter.value work)));
      record workload "minor_words_per_query" (per kernel_queries words))
    (kernel_scenarios e lat);
  List.iter
    (fun (name, run) ->
      List.iter
        (fun (budget_mib, queries) ->
          (* a fresh obs context per run: its counters hold this run's
             vertex and heap-pop work alone *)
          let obs = Olar_obs.Obs.create () in
          let ctx = Option.get obs in
          let session =
            Olar_serve.Session.create
              ~budget_bytes:(budget_mib * 1024 * 1024)
              (Olar_core.Engine.with_obs e obs)
          in
          let words =
            minor_words (fun () ->
                for k = 0 to queries - 1 do
                  run session k
                done)
          in
          let s = Olar_serve.Session.stats session in
          let cell name =
            float_of_int
              (Olar_util.Timer.Counter.value (Olar_obs.Obs.counter ctx name))
          in
          let workload = Printf.sprintf "session/%s/b%d" name budget_mib in
          let open Olar_serve.Session in
          List.iter
            (fun (metric, value) -> record workload metric value)
            [
              ("hits", float_of_int s.hits);
              ("refines", float_of_int s.refines);
              ("misses", float_of_int s.misses);
              ("evictions", float_of_int s.evictions);
              ("resident_bytes", float_of_int s.resident_bytes);
              ("minor_words_per_query", per queries words);
              ( "vertices_per_query",
                per queries (cell "olar_query_vertices_visited_total") );
              ( "heap_pops_per_query",
                per queries (cell "olar_query_heap_pops_total") );
            ])
        [ (0, uncached_queries); (32, cached_queries) ])
    (zipf_streams config);
  (* The miners' logical work on the lattice's database and threshold:
     a kernel change that alters what DHP or Apriori counts, prunes or
     trims fails the gate by name. *)
  let _, db = dataset config ~t:10 ~i:4 in
  let minsup = Database.count_of_fraction db 0.002 in
  List.iter
    (fun (name, mine) ->
      let stats = Olar_mining.Stats.create () in
      ignore (mine ~stats ~minsup db);
      List.iter
        (fun cell ->
          record ("mining/" ^ name)
            (Olar_util.Timer.Counter.name cell)
            (float_of_int (Olar_util.Timer.Counter.value cell)))
        Olar_mining.Stats.
          [ stats.passes; stats.candidates; stats.frequent; stats.hash_pruned;
            stats.trimmed_items ])
    [
      ("dhp", fun ~stats ~minsup db -> Olar_mining.Dhp.mine ~stats db ~minsup);
      ("apriori", fun ~stats ~minsup db -> Olar_mining.Apriori.mine ~stats db ~minsup);
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core operations. *)

let micro config =
  section "Micro-benchmarks (Bechamel, ns per call via OLS on run count)";
  let e = engine config ~t:10 ~i:4 ~primary:0.002 in
  let lat = Olar_core.Engine.lattice e in
  let probe =
    (* a primary 2-itemset to use as a lookup/search target *)
    let found = ref Itemset.empty in
    Olar_core.Lattice.iter_vertices
      (fun v ->
        if Itemset.is_empty !found && Olar_core.Lattice.cardinal lat v = 2 then
          found := Olar_core.Lattice.itemset lat v)
      lat;
    !found
  in
  let deep =
    (* the highest-support vertex of maximal cardinality: boundary target *)
    let best = ref (Olar_core.Lattice.root lat) in
    Olar_core.Lattice.iter_vertices
      (fun v ->
        if
          Olar_core.Lattice.cardinal lat v > Olar_core.Lattice.cardinal lat !best
          || Olar_core.Lattice.cardinal lat v = Olar_core.Lattice.cardinal lat !best
             && Olar_core.Lattice.support lat v > Olar_core.Lattice.support lat !best
        then best := v)
      lat;
    !best
  in
  let x = Itemset.of_list [ 3; 14; 26; 159; 535 ]
  and y = Itemset.of_list [ 3; 14; 159; 265; 358 ] in
  let minsup_broad = Olar_core.Engine.count_of_support e 0.002 in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"itemset.union" (Staged.stage (fun () -> Itemset.union x y));
      Test.make ~name:"itemset.subset" (Staged.stage (fun () -> Itemset.subset x y));
      Test.make ~name:"itemset.hash" (Staged.stage (fun () -> Itemset.hash x));
      Test.make ~name:"lattice.find"
        (Staged.stage (fun () -> Olar_core.Lattice.find lat probe));
      Test.make ~name:"query.find_itemsets(broad)"
        (Staged.stage (fun () ->
             Olar_core.Query.find_itemsets lat ~containing:Itemset.empty
               ~minsup:minsup_broad));
      Test.make ~name:"query.find_itemsets(targeted)"
        (Staged.stage (fun () ->
             Olar_core.Query.find_itemsets lat ~containing:probe
               ~minsup:(Olar_core.Lattice.threshold lat)));
      Test.make ~name:"query.count_itemsets(broad)"
        (Staged.stage (fun () ->
             Olar_core.Query.count_itemsets lat ~containing:Itemset.empty
               ~minsup:minsup_broad));
      Test.make ~name:"query.count_itemsets(targeted)"
        (Staged.stage (fun () ->
             Olar_core.Query.count_itemsets lat ~containing:probe
               ~minsup:(Olar_core.Lattice.threshold lat)));
      Test.make ~name:"boundary.find_boundary"
        (Staged.stage (fun () ->
             Olar_core.Boundary.find_boundary lat ~target:deep
               ~confidence:(Olar_core.Conf.of_float 0.7)));
      Test.make ~name:"support_query.top10"
        (Staged.stage (fun () ->
             Olar_core.Support_query.find_support lat ~containing:Itemset.empty
               ~k:10));
      Test.make ~name:"rulegen.essential(broad)"
        (Staged.stage (fun () ->
             Olar_core.Rulegen.essential_rules lat ~minsup:minsup_broad
               ~confidence:(Olar_core.Conf.of_float 0.7)));
    ]
  in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:None () in
    let raw = Benchmark.all cfg [ instance ] test in
    let ols =
      Analyze.all
        (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |])
        instance raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ ns ] -> Printf.printf "  %-32s %14.1f ns/call\n" name ns
        | _ -> Printf.printf "  %-32s (no estimate)\n" name)
      ols
  in
  List.iter benchmark tests

(* ------------------------------------------------------------------ *)
(* Driver *)

let all_experiments =
  [
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("table3", table3);
    ("fig11", fig11); ("fig12", fig12); ("scaling", scaling); ("counts", counts);
    ("miners", miners);
    ("ablate-sort", ablate_sort);
    ("ablate-cache", ablate_cache); ("ablate-miner", ablate_miner);
    ("ablate-counting", ablate_counting); ("ablate-bestfirst", ablate_bestfirst);
    ("micro", micro);
  ]

let usage () =
  Printf.printf
    "usage: main.exe [--full] [--seed N] [--domains N] [--experiment a,b,...] \
     [--json PATH]\n";
  Printf.printf "experiments: %s, all\n"
    (String.concat ", " (List.map fst all_experiments));
  exit 1

let () =
  let config = ref default_config in
  let chosen = ref [] in
  let seed = ref None in
  let domains = ref None in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
      config := full_config;
      parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := Some n | None -> usage ());
      parse rest
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> domains := Some n
      | _ -> usage ());
      parse rest
    | "--experiment" :: names :: rest ->
      chosen := !chosen @ String.split_on_char ',' names;
      parse rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse rest
    | "--help" :: _ -> usage ()
    | arg :: _ ->
      Printf.printf "unknown argument %S\n" arg;
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let config =
    match !seed with None -> !config | Some s -> { !config with seed = s }
  in
  let config =
    match !domains with None -> config | Some d -> { config with domains = Some d }
  in
  let selected =
    match !chosen with
    | [] | [ "all" ] -> all_experiments
    | names ->
      List.map
        (fun name ->
          match List.assoc_opt name all_experiments with
          | Some f -> (name, f)
          | None ->
            Printf.printf "unknown experiment %S\n" name;
            usage ())
        names
  in
  Printf.printf "olar experiment harness: scale %s (%d transactions, %d items)\n"
    (if config.full then "FULL (paper)" else "default (use --full for paper scale)")
    config.transactions config.num_items;
  let total = Olar_util.Timer.start () in
  List.iter (fun (_, f) -> f config) selected;
  Printf.printf "\ntotal: %.1fs\n" (Olar_util.Timer.elapsed_s total);
  match !json_path with
  | None -> ()
  | Some path ->
    Counts.write path (List.rev !counted);
    Printf.printf "[json] wrote %d counts to %s\n" (List.length !counted) path
