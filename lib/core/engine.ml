open Olar_data
module Obs = Olar_obs.Obs
module Trace = Olar_obs.Trace

(* The engine owns a scratch so steady-state queries reuse one set of
   marks/stack/heap instead of allocating per call, and an observability
   context shared by every entry point. It is the one caller of the
   query kernels, and every kernel call goes through [run] below, which
   opens the kind's query span from [spans] when telemetry is on. *)
type t = {
  lattice : Lattice.t;
  scratch : Scratch.t;
  obs : Obs.t;
  spans : Obs.query option array; (* one slot per query kind, see [span] *)
  epoch : int;
}

(* Every query kind the engine runs under a span: its name (the span is
   [query.<name>], the histogram [olar_query_<name>_seconds]), the work
   counter its kernel reports through, and its slot in [t.spans]. *)
type kind = { slot : int; name : string; work : Obs.work }

let k_itemsets = { slot = 0; name = "itemsets"; work = Obs.Vertices }
let k_count = { slot = 1; name = "count_itemsets"; work = Obs.Vertices }
let k_essential = { slot = 2; name = "essential_rules"; work = Obs.Vertices }
let k_all = { slot = 3; name = "all_rules"; work = Obs.Vertices }
let k_single = { slot = 4; name = "single_consequent_rules"; work = Obs.Vertices }
let k_redundancy = { slot = 5; name = "redundancy"; work = Obs.No_work }
let k_boundary = { slot = 6; name = "boundary"; work = Obs.Vertices }
let k_top_k = { slot = 7; name = "support_for_k_itemsets"; work = Obs.Heap_pops }
let k_top_k_rules = { slot = 8; name = "support_for_k_rules"; work = Obs.Heap_pops }
let num_kinds = 9

(* Process-wide generation counter. Every [of_lattice] — and therefore
   every preprocess / append / rebuild / load — produces an engine with
   a fresh epoch, so a cache keyed on the epoch can never serve an
   answer computed against a different lattice. Atomic so engines may
   be built from any domain (the serving pool gives each worker its own
   engine view over the shared lattice). *)
let epoch_counter = Atomic.make 0

let next_epoch () = 1 + Atomic.fetch_and_add epoch_counter 1

let set_lattice_gauges obs lattice =
  match obs with
  | None -> ()
  | Some ctx ->
    let s = Lattice.stats lattice in
    let set name help v =
      Olar_obs.Metrics.Gauge.set_int (Obs.gauge ctx ~help name) v
    in
    set "olar_lattice_vertices" "Lattice vertices, including the root"
      s.Lattice.Stats.vertices;
    set "olar_lattice_edges" "Lattice edges (sum of primary itemset sizes)"
      s.Lattice.Stats.edges;
    set "olar_lattice_bytes" "Estimated resident bytes of the lattice"
      s.Lattice.Stats.bytes

let of_lattice ?(obs = Obs.disabled) lattice =
  set_lattice_gauges obs lattice;
  {
    lattice;
    scratch = Scratch.create lattice;
    obs;
    spans = Array.make num_kinds None;
    epoch = next_epoch ();
  }

let epoch t = t.epoch

let obs t = t.obs

let with_obs t obs =
  set_lattice_gauges obs t.lattice;
  { t with obs; spans = Array.make num_kinds None }

(* A per-domain view: same lattice, same obs, same epoch — only the
   scratch is private. Views of one engine are interchangeable for
   answers (the lattice is immutable) and distinguishable for nothing:
   keeping the epoch shared is what lets the serving pool stamp every
   response of one published snapshot with one generation. *)
let view t = { t with scratch = Scratch.create t.lattice }

(* Surface the mining work counters in the registry. The attached
   counters ARE the [Stats.t] fields — the miner keeps bumping the same
   cells the registry reads, so there is no copying step to forget. *)
let attach_mining_stats obs stats =
  match obs with
  | None -> ()
  | Some ctx ->
    let module S = Olar_mining.Stats in
    let att name help c = Obs.attach_counter ctx ~help ~name c in
    att "olar_mining_db_passes_total" "Full database scans during mining"
      stats.S.passes;
    att "olar_mining_candidates_total"
      "Candidate itemsets whose support was counted" stats.S.candidates;
    att "olar_mining_frequent_total" "Itemsets found frequent" stats.S.frequent;
    att "olar_mining_hash_pruned_total"
      "Candidates discarded by the DHP hash filter" stats.S.hash_pruned;
    att "olar_mining_trimmed_items_total"
      "Item occurrences removed by transaction trimming" stats.S.trimmed_items

(* When telemetry is on, preprocessing always runs with a [Stats.t] so
   the database-pass and candidate counters have a live source. *)
let stats_for obs stats =
  match (obs, stats) with
  | Some _, None -> Some (Olar_mining.Stats.create ())
  | _, _ -> stats

let lattice_of_frequent frequent =
  assert (Olar_mining.Frequent.complete frequent);
  Lattice.of_entries
    ~db_size:(Olar_mining.Frequent.db_size frequent)
    ~threshold:(Olar_mining.Frequent.threshold frequent)
    (Array.of_list (Olar_mining.Frequent.to_list frequent))

let preprocess_span obs name f =
  match obs with
  | None -> f ()
  | Some ctx ->
    let out = ref None in
    Obs.span ctx name
      ~attrs:(fun () ->
        match !out with
        | None -> []
        | Some (r : Olar_mining.Threshold.result) ->
          [
            ("threshold", Trace.Int r.Olar_mining.Threshold.threshold);
            ( "itemsets",
              Trace.Int
                (Olar_mining.Frequent.total r.Olar_mining.Threshold.itemsets) );
            ("probes", Trace.Int (List.length r.Olar_mining.Threshold.probes));
          ])
      (fun () ->
        let r = f () in
        out := Some r;
        r)

let preprocess ?(obs = Obs.disabled) ?stats ?miner ?(search = `Optimized) ?slack
    ?domains db ~max_itemsets =
  if max_itemsets < 1 then invalid_arg "Engine.preprocess: max_itemsets";
  let slack =
    match slack with
    | Some s -> s
    | None -> min (max_itemsets - 1) (max 0 (max_itemsets / 20))
  in
  let stats = stats_for obs stats in
  let result =
    preprocess_span obs "preprocess" (fun () ->
        match search with
        | `Naive ->
          Olar_mining.Threshold.naive ~obs ?stats ?miner ?domains db
            ~target:max_itemsets ~slack
        | `Optimized ->
          Olar_mining.Threshold.optimized ~obs ?stats ?miner ?domains db
            ~target:max_itemsets ~slack)
  in
  Option.iter (attach_mining_stats obs) stats;
  of_lattice ~obs (lattice_of_frequent result.Olar_mining.Threshold.itemsets)

let preprocess_bytes ?(obs = Obs.disabled) ?stats ?miner ?slack_bytes ?domains
    db ~max_bytes =
  if max_bytes < 1 then invalid_arg "Engine.preprocess_bytes: max_bytes";
  let slack_bytes =
    match slack_bytes with
    | Some s -> s
    | None -> min (max_bytes - 1) (max 0 (max_bytes / 20))
  in
  let stats = stats_for obs stats in
  let result =
    preprocess_span obs "preprocess_bytes" (fun () ->
        Olar_mining.Threshold.optimized_bytes ~obs ?stats ?miner ?domains db
          ~budget_bytes:max_bytes ~slack_bytes)
  in
  Option.iter (attach_mining_stats obs) stats;
  of_lattice ~obs (lattice_of_frequent result.Olar_mining.Threshold.itemsets)

let at_threshold ?(obs = Obs.disabled) ?stats
    ?(miner = Olar_mining.Threshold.Use_dhp) ?domains db ~primary_support =
  if primary_support <= 0.0 || primary_support > 1.0 then
    invalid_arg "Engine.at_threshold: primary_support";
  let minsup = Database.count_of_fraction db primary_support in
  let stats = stats_for obs stats in
  let frequent =
    Obs.maybe_span obs "at_threshold"
      ~attrs:(fun () -> [ ("minsup", Trace.Int minsup) ])
      (fun () ->
        match miner with
        | Olar_mining.Threshold.Use_apriori ->
          Olar_mining.Apriori.mine ~obs ?stats ?domains db ~minsup
        | Olar_mining.Threshold.Use_dhp ->
          Olar_mining.Dhp.mine ~obs ?stats ?domains db ~minsup
        | Olar_mining.Threshold.Use_fpgrowth ->
          Olar_mining.Fpgrowth.mine ?stats db ~minsup)
  in
  Option.iter (attach_mining_stats obs) stats;
  of_lattice ~obs (lattice_of_frequent frequent)

let lattice t = t.lattice
let db_size t = Lattice.db_size t.lattice
let primary_threshold_count t = Lattice.threshold t.lattice

let primary_threshold t =
  float_of_int (primary_threshold_count t) /. float_of_int (max 1 (db_size t))

let num_primary_itemsets t = Lattice.num_vertices t.lattice - 1
let stats t = Lattice.stats t.lattice

let count_of_support t s =
  if s < 0.0 || s > 1.0 || Float.is_nan s then
    invalid_arg "Engine.count_of_support";
  max 1 (int_of_float (ceil (s *. float_of_int (db_size t))))

let fraction t count = float_of_int count /. float_of_int (max 1 (db_size t))

(* ------------------------------------------------------------------ *)
(* The one span helper                                                *)
(* ------------------------------------------------------------------ *)

(* A kind's resolved span, interned on first use so a series appears in
   the registry only once its kind has run. Views share [t.spans] across
   domains: two domains racing on an empty slot both resolve the same
   registry cells, so either write is a correct one. *)
let span t ctx kind =
  match t.spans.(kind.slot) with
  | Some q -> q
  | None ->
    let q = Obs.query ctx ~name:kind.name ~work:kind.work in
    t.spans.(kind.slot) <- Some q;
    q

(* Run [f t a b] as one query of [kind]. Telemetry off, it is the bare
   call: with [f] closed over nothing, nothing is allocated
   ([count_itemsets] relies on it). Telemetry on, it runs under the
   kind's span, which counts the query and passes [f] its work counter. *)
let run t kind f a b =
  match t.obs with
  | None -> f t a b None
  | Some ctx -> Obs.query_span (span t ctx kind) (f t a b)

(* ------------------------------------------------------------------ *)
(* Validated entry points                                             *)
(* ------------------------------------------------------------------ *)

let cut ?minconf t minsup =
  let cut = count_of_support t minsup in
  Option.iter (fun c -> ignore (Conf.of_float c)) minconf;
  Query.check_minsup t.lattice cut;
  cut

let check_k = Support_query.check_k

let itemset_ids t ~containing ~minsup =
  run t k_itemsets
    (fun t containing minsup work ->
      Query.find_itemsets ?work ~scratch:t.scratch t.lattice ~containing ~minsup)
    containing minsup

let itemset_count t ~containing ~minsup =
  run t k_count
    (fun t containing minsup work ->
      Query.count_itemsets ?work ~scratch:t.scratch t.lattice ~containing ~minsup)
    containing minsup

type rule_kind = Essential | All | Single

let rules t kind ~containing ~constraints ~minsup ~confidence =
  run t
    (match kind with Essential -> k_essential | All -> k_all | Single -> k_single)
    (fun t containing minsup work ->
      let scratch = t.scratch in
      match kind with
      | Essential ->
        Rulegen.essential_rules ?work ~scratch ~containing ~constraints t.lattice
          ~minsup ~confidence
      | All ->
        Rulegen.all_rules ?work ~scratch ~containing ~constraints t.lattice
          ~minsup ~confidence
      | Single ->
        Rulegen.single_consequent_rules ?work ~scratch ~containing t.lattice
          ~minsup ~confidence)
    containing minsup

let top_k t ~containing ~k =
  run t k_top_k
    (fun t containing k work ->
      Support_query.find_support ?work ~scratch:t.scratch t.lattice ~containing ~k)
    containing k

let top_k_rules t ~involving ~confidence ~k =
  run t k_top_k_rules
    (fun t involving k work ->
      Support_query.find_support_for_rules ?work ~scratch:t.scratch t.lattice
        ~involving ~confidence ~k)
    involving k

(* ------------------------------------------------------------------ *)
(* Fractional queries (Section 1.2)                                   *)
(* ------------------------------------------------------------------ *)

let itemsets ?(containing = Itemset.empty) t ~minsup =
  let ids = itemset_ids t ~containing ~minsup:(count_of_support t minsup) in
  Array.fold_right
    (fun v acc ->
      (Lattice.itemset t.lattice v, fraction t (Lattice.support t.lattice v)) :: acc)
    ids []

let count_itemsets ?(containing = Itemset.empty) t ~minsup =
  itemset_count t ~containing ~minsup:(count_of_support t minsup)

let fractional_rules kind ?(containing = Itemset.empty)
    ?(constraints = Boundary.unconstrained) t ~minsup ~minconf =
  let minsup = count_of_support t minsup in
  rules t kind ~containing ~constraints ~minsup ~confidence:(Conf.of_float minconf)

let essential_rules ?containing ?constraints t ~minsup ~minconf =
  fractional_rules Essential ?containing ?constraints t ~minsup ~minconf

let all_rules ?containing ?constraints t ~minsup ~minconf =
  fractional_rules All ?containing ?constraints t ~minsup ~minconf

let single_consequent_rules ?containing t ~minsup ~minconf =
  fractional_rules Single ?containing t ~minsup ~minconf

let redundancy ?containing t ~minsup ~minconf =
  let minsup = count_of_support t minsup in
  let confidence = Conf.of_float minconf in
  run t k_redundancy
    (fun t containing minsup _ ->
      Rulegen.redundancy ~scratch:t.scratch ?containing t.lattice ~minsup
        ~confidence)
    containing minsup

let boundary ?constraints t ~target ~minconf =
  let confidence = Conf.of_float minconf in
  List.map
    (fun id -> (Lattice.itemset t.lattice id, fraction t (Lattice.support t.lattice id)))
    (run t k_boundary
       (fun t target confidence work ->
         match Lattice.find t.lattice target with
         | None -> []
         | Some v ->
           Boundary.find_boundary ?work ~scratch:t.scratch ?constraints t.lattice
             ~target:v ~confidence)
       target confidence)

let support_for_k_itemsets t ~containing ~k =
  Option.map (fraction t) (top_k t ~containing ~k).Support_query.support_level

let support_for_k_rules t ~involving ~minconf ~k =
  let confidence = Conf.of_float minconf in
  Option.map (fraction t)
    (top_k_rules t ~involving ~confidence ~k).Support_query.rule_support_level

let append ?domains t delta =
  let out = ref None in
  let update =
    Obs.maybe_span t.obs "append"
      ~attrs:(fun () ->
        ("delta_size", Trace.Int (Database.size delta))
        ::
        (match !out with
        | None -> []
        | Some u ->
          [
            ("vertices_bumped", Trace.Int u.Maintenance.vertices_bumped);
            ("rows_resorted", Trace.Int u.Maintenance.rows_resorted);
          ]))
      (fun () ->
        let u = Maintenance.append ?domains t.lattice delta in
        out := Some u;
        u)
  in
  ( of_lattice ~obs:t.obs update.Maintenance.lattice,
    update.Maintenance.promoted_candidates )

let save t path =
  Obs.maybe_span t.obs "save"
    ~attrs:(fun () -> [ ("path", Trace.Str path) ])
    (fun () -> Serialize.save t.lattice path)

let load ?(obs = Obs.disabled) path =
  let lattice =
    Obs.maybe_span obs "load"
      ~attrs:(fun () -> [ ("path", Trace.Str path) ])
      (fun () -> Serialize.load path)
  in
  of_lattice ~obs lattice
