(* The per-layer ladder: the workload's own read stream sent through
   each layer's public entry point in turn, in process, one rung at a
   time. A layer's self cost is its rung minus the rung below:

     kernel   Query / Rulegen / Support_query / Boundary, one Scratch
     engine   Olar_core.Engine, obs enabled as `olar serve` runs it
     session  Olar_serve.Session at budget 0 and at the server's budget
     pool     Olar_serve.Pool.submit -> callback at 1 and nproc domains

   Spans are taken from outside, around the calls into each layer; no
   tracing runs inside the program. Counted passes (minor words, lattice
   work, cache outcomes) start from fresh state and run twice: at one
   domain they must repeat exactly. *)

module Engine = Olar_core.Engine
module Lattice = Olar_core.Lattice
module Pool = Olar_serve.Pool
module Session = Olar_serve.Session
module Counter = Olar_util.Timer.Counter

let now = Olar_util.Timer.monotonic_s

(* Median over [passes] timed passes, in ns per request, after one
   warm-up pass. Every pass starts from fresh state built by [make]
   (untimed), so a cached rung serves only the repeats within the
   stream, as the workload does. [make] returns the pass and its
   clean-up. *)
let time_ns ?(passes = 3) ~n make =
  let pass () =
    let run, cleanup = make () in
    let t0 = now () in
    run ();
    let dt = now () -. t0 in
    cleanup ();
    dt *. 1e9 /. float_of_int n
  in
  ignore (pass ());
  Samples.median (List.init passes (fun _ -> pass ()))

let nothing () = ()

let minor_words run =
  let w0 = Gc.minor_words () in
  run ();
  Gc.minor_words () -. w0

(* The kernels each request kind bottoms out in, with the engine's
   threshold conversion. *)
let kernel engine scratch ~vertices ~pops (req : Pool.request) =
  let lat = Engine.lattice engine in
  let cut = Engine.count_of_support engine in
  let conf = Olar_core.Conf.of_float in
  let work = Some vertices in
  match req with
  | Find_itemsets { containing; minsup } ->
    ignore (Olar_core.Query.find_itemsets ?work ~scratch lat ~containing ~minsup:(cut minsup))
  | Count_itemsets { containing; minsup } ->
    ignore (Olar_core.Query.count_itemsets ?work ~scratch lat ~containing ~minsup:(cut minsup))
  | Essential_rules { containing; constraints; minsup; minconf } ->
    ignore
      (Olar_core.Rulegen.essential_rules ?work ~scratch ~containing ~constraints lat
         ~minsup:(cut minsup) ~confidence:(conf minconf))
  | All_rules { containing; constraints; minsup; minconf } ->
    ignore
      (Olar_core.Rulegen.all_rules ?work ~scratch ~containing ~constraints lat
         ~minsup:(cut minsup) ~confidence:(conf minconf))
  | Single_consequent_rules { containing; minsup; minconf } ->
    ignore
      (Olar_core.Rulegen.single_consequent_rules ?work ~scratch ~containing lat
         ~minsup:(cut minsup) ~confidence:(conf minconf))
  | Support_for_k_itemsets { containing; k } ->
    ignore (Olar_core.Support_query.find_support ~work:pops ~scratch lat ~containing ~k)
  | Support_for_k_rules { involving; minconf; k } ->
    ignore
      (Olar_core.Support_query.find_support_for_rules ~work:pops ~scratch lat ~involving
         ~confidence:(conf minconf) ~k)
  | Boundary { target; constraints; minconf } -> (
    match Lattice.find lat target with
    | None -> ()
    | Some v ->
      ignore
        (Olar_core.Boundary.find_boundary ?work ~scratch ~constraints lat ~target:v
           ~confidence:(conf minconf)))
  | Append _ -> ()

let engine_call e (req : Pool.request) =
  match req with
  | Find_itemsets { containing; minsup } -> ignore (Engine.itemsets ~containing e ~minsup)
  | Count_itemsets { containing; minsup } -> ignore (Engine.count_itemsets ~containing e ~minsup)
  | Essential_rules { containing; constraints; minsup; minconf } ->
    ignore (Engine.essential_rules ~containing ~constraints e ~minsup ~minconf)
  | All_rules { containing; constraints; minsup; minconf } ->
    ignore (Engine.all_rules ~containing ~constraints e ~minsup ~minconf)
  | Single_consequent_rules { containing; minsup; minconf } ->
    ignore (Engine.single_consequent_rules ~containing e ~minsup ~minconf)
  | Support_for_k_itemsets { containing; k } ->
    ignore (Engine.support_for_k_itemsets e ~containing ~k)
  | Support_for_k_rules { involving; minconf; k } ->
    ignore (Engine.support_for_k_rules e ~involving ~minconf ~k)
  | Boundary { target; constraints; minconf } ->
    ignore (Engine.boundary ~constraints e ~target ~minconf)
  | Append _ -> ()

(* The session calls the pool makes for each request kind. *)
let session_call s (req : Pool.request) =
  match req with
  | Find_itemsets { containing; minsup } ->
    let ids = Session.itemset_ids ~containing s ~minsup in
    let lat = Engine.lattice (Session.engine s) in
    ignore (Array.map (fun v -> (Lattice.itemset lat v, Lattice.support lat v)) ids)
  | Count_itemsets { containing; minsup } -> ignore (Session.count_itemsets ~containing s ~minsup)
  | Essential_rules { containing; constraints; minsup; minconf } ->
    ignore (Session.essential_rules ~containing ~constraints s ~minsup ~minconf)
  | All_rules { containing; constraints; minsup; minconf } ->
    ignore (Session.all_rules ~containing ~constraints s ~minsup ~minconf)
  | Single_consequent_rules { containing; minsup; minconf } ->
    ignore (Session.single_consequent_rules ~containing s ~minsup ~minconf)
  | Support_for_k_itemsets { containing; k } ->
    ignore (Session.support_for_k_itemsets s ~containing ~k)
  | Support_for_k_rules { involving; minconf; k } ->
    ignore (Session.support_for_k_rules s ~involving ~minconf ~k)
  | Boundary { target; constraints; minconf } ->
    ignore (Session.boundary ~constraints s ~target ~minconf)
  | Append _ -> ()

(* What a counted pass must reproduce exactly at one domain. *)
type counts = {
  words : float;
  vertices : int;
  pops : int;
  hits : int;
  refines : int;
  misses : int;
  evictions : int;
}

let no_cache = { words = 0.0; vertices = 0; pops = 0; hits = 0; refines = 0; misses = 0; evictions = 0 }

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  repeat_failures : string list;  (** rungs whose counts did not repeat *)
}

let run ~base ~budget_bytes ~(reqs : Pool.request array) ~(appends : Pool.request array) =
  let n = Array.length reqs in
  let nf = float_of_int n in
  let fresh_engine () = Engine.view (Engine.with_obs base (Olar_obs.Obs.create ())) in
  let each f () = Array.iter f reqs in
  let failures = ref [] in
  (* Counted pass on fresh state, twice; [make] builds the state and the
     per-request function, [finish] reads the state's counts. *)
  let counted name make =
    let once () =
      let step, finish = make () in
      let words = minor_words (each step) in
      { (finish ()) with words }
    in
    let a = once () in
    let b = once () in
    if a <> b then
      failures :=
        Printf.sprintf "%s: words %.0f/%.0f vertices %d/%d pops %d/%d hits %d/%d refines %d/%d misses %d/%d"
          name a.words b.words a.vertices b.vertices a.pops b.pops a.hits b.hits a.refines
          b.refines a.misses b.misses
        :: !failures;
    a
  in
  (* kernel *)
  let kernel_state () =
    let e = fresh_engine () in
    let scratch = Olar_core.Scratch.create (Engine.lattice e) in
    let vertices = Counter.create "vertices" and pops = Counter.create "heap_pops" in
    ( kernel e scratch ~vertices ~pops,
      fun () -> { no_cache with vertices = Counter.value vertices; pops = Counter.value pops } )
  in
  let k_counts = counted "kernel" kernel_state in
  let k_ns = time_ns ~n (fun () -> (each (fst (kernel_state ())), nothing)) in
  (* engine *)
  let e_counts = counted "engine" (fun () -> (engine_call (fresh_engine ()), fun () -> no_cache)) in
  let e_ns = time_ns ~n (fun () -> (each (engine_call (fresh_engine ())), nothing)) in
  (* session *)
  let session_state budget () =
    let s = Session.create ~budget_bytes:budget (fresh_engine ()) in
    ( session_call s,
      fun () ->
        let st = Session.stats s in
        {
          no_cache with
          hits = st.Session.hits;
          refines = st.Session.refines;
          misses = st.Session.misses;
          evictions = st.Session.evictions;
        } )
  in
  let s0_counts = counted "session.b0" (session_state 0) in
  let s0_ns = time_ns ~n (fun () -> (each (fst (session_state 0 ())), nothing)) in
  let sb_counts = counted "session.b8" (session_state budget_bytes) in
  let sb_ns = time_ns ~n (fun () -> (each (fst (session_state budget_bytes ())), nothing)) in
  (* pool *)
  let submit pool r = Pool.submit pool r (fun _ _ -> ()) in
  let pool_pass pool () =
    Array.iter (submit pool) reqs;
    Pool.drain pool
  in
  let p1_counts =
    counted "pool.d1" (fun () ->
        let pool = Pool.create ~domains:1 ~budget_bytes (fresh_engine ()) in
        ( submit pool,
          fun () ->
            Pool.drain pool;
            Pool.shutdown pool;
            no_cache ))
  in
  let p1_ns =
    time_ns ~n (fun () ->
        let pool = Pool.create ~domains:1 ~budget_bytes (fresh_engine ()) in
        (pool_pass pool, fun () -> Pool.shutdown pool))
  in
  let domains = Domain.recommended_domain_count () in
  let waits = ref 0.0 and waited = ref 0 and busy = ref [] in
  let pn_ns =
    time_ns ~n (fun () ->
        let pool = Pool.create ~domains ~budget_bytes (fresh_engine ()) in
        let t0 = ref 0.0 in
        ( (fun () ->
            t0 := now ();
            pool_pass pool ()),
          fun () ->
            let wall = now () -. !t0 in
            let h = Pool.dispatch_wait pool in
            waits := !waits +. Olar_obs.Metrics.Histogram.sum h;
            waited := !waited + Olar_obs.Metrics.Histogram.count h;
            let b =
              Array.fold_left (fun a (d : Pool.domain_stat) -> a +. d.Pool.busy_s) 0.0
                (Pool.domain_stats pool)
            in
            busy := (b /. (wall *. float_of_int domains)) :: !busy;
            Pool.shutdown pool ))
  in
  let wait_us = if !waited = 0 then 0.0 else !waits *. 1e6 /. float_of_int !waited in
  (* appends under live reads: each fold runs synchronously in submit on
     the coordinator, while workers keep serving the old snapshot *)
  let fold_us, retired =
    Pool.with_pool ~domains ~budget_bytes (fresh_engine ()) (fun pool ->
        let folds = Samples.create () in
        Array.iteri
          (fun i a ->
            let t0 = now () in
            submit pool a;
            Samples.add folds (now () -. t0);
            for j = 0 to 63 do
              submit pool reqs.(((i * 64) + j) mod n)
            done)
          appends;
        Pool.drain pool;
        (Samples.percentile folds 0.5 *. 1e6, Pool.retired_snapshots pool))
  in
  let busy_frac = Samples.median !busy in
  let per x = float_of_int x /. nf in
  {
    metrics =
      [
        ("kernel.ns_per_req", k_ns, "ns");
        ("kernel.minor_words_per_req", k_counts.words /. nf, "words");
        ("kernel.vertices_per_req", per k_counts.vertices, "count");
        ("kernel.heap_pops_per_req", per k_counts.pops, "count");
        ("engine.ns_per_req", e_ns, "ns");
        ("engine.self_ns_per_req", e_ns -. k_ns, "ns");
        ("engine.minor_words_per_req", e_counts.words /. nf, "words");
        ("session.b0.ns_per_req", s0_ns, "ns");
        ("session.b0.minor_words_per_req", s0_counts.words /. nf, "words");
        ("session.b8.ns_per_req", sb_ns, "ns");
        ("session.b8.minor_words_per_req", sb_counts.words /. nf, "words");
        ("session.self_ns_per_req", s0_ns -. e_ns, "ns");
        ("session.served_frac", per sb_counts.hits, "fraction");
        ("session.refine_frac", per sb_counts.refines, "fraction");
        ("session.evictions", float_of_int sb_counts.evictions, "count");
        ("pool.d1.ns_per_req", p1_ns, "ns");
        ("pool.dN.ns_per_req", pn_ns, "ns");
        ("pool.self_ns_per_req", p1_ns -. sb_ns, "ns");
        ("pool.minor_words_per_req", p1_counts.words /. nf, "words");
        ("pool.dispatch_wait_us", wait_us, "us");
        ("pool.busy_frac", busy_frac, "fraction");
        ("pool.append_fold_us", fold_us, "us");
        ("pool.retired_after_drain", float_of_int retired, "count");
      ];
    repeat_failures = List.rev !failures;
  }
