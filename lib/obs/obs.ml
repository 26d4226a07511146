module Counter = Olar_util.Timer.Counter

type ctx = {
  metrics : Metrics.t;
  tracing : Trace.Sharded.sharded option;
  sink : Sink.t option;
  clock : unit -> float;
  start_s : float; (* clock reading at [create]; anchors uptime *)
  queries : Counter.t;
  vertices_visited : Counter.t;
  heap_pops : Counter.t;
}

(* [t = ctx option] is exposed concretely so the engine can dispatch with
   a bare [match]: the [None] arm runs the uninstrumented body and
   allocates nothing — closures for the instrumented path are only
   built inside the [Some] arm. *)
type t = ctx option

let disabled : t = None

let counter ctx ?help name = Metrics.counter ctx.metrics ?help name
let gauge ctx ?help ?labels name = Metrics.gauge ctx.metrics ?help ?labels name

(* Process-level gauges are sampled, not incrementally maintained.
   Registered as a collect hook in [create], so any exposition of the
   registry refreshes them; callers may also invoke it directly. *)
let update_runtime_gauges ctx =
  let s = Gc.quick_stat () in
  Metrics.Gauge.set_int
    (gauge ctx ~help:"Minor collections since process start"
       "olar_gc_minor_collections_total")
    s.Gc.minor_collections;
  Metrics.Gauge.set_int
    (gauge ctx ~help:"Major collection cycles since process start"
       "olar_gc_major_collections_total")
    s.Gc.major_collections;
  Metrics.Gauge.set_int
    (gauge ctx ~help:"Major-heap size in words" "olar_heap_words")
    s.Gc.heap_words;
  Metrics.Gauge.set
    (gauge ctx ~help:"Seconds since this context was created"
       "olar_uptime_seconds")
    (ctx.clock () -. ctx.start_s)

let create ?(clock = Unix.gettimeofday) ?trace () : t =
  let metrics = Metrics.create () in
  let queries =
    Metrics.counter metrics ~help:"Online queries served" "olar_queries_total"
  in
  let vertices_visited =
    Metrics.counter metrics
      ~help:"Lattice vertices expanded by traversal kernels"
      "olar_query_vertices_visited_total"
  in
  let heap_pops =
    Metrics.counter metrics
      ~help:"Best-first heap pops in support queries"
      "olar_query_heap_pops_total"
  in
  let tracing =
    Option.map
      (fun sink -> Trace.Sharded.create ~clock ~emit:(Sink.emit sink) ())
      trace
  in
  let ctx =
    {
      metrics;
      tracing;
      sink = trace;
      clock;
      start_s = clock ();
      queries;
      vertices_visited;
      heap_pops;
    }
  in
  (* Exposition triggers [Metrics.collect], so a one-shot CLI run that
     renders the registry (olar metrics, --metrics) sees live GC/heap/
     uptime gauges without anyone remembering to sample them first. *)
  Metrics.on_collect metrics (fun () -> update_runtime_gauges ctx);
  Some ctx

let metrics ctx = ctx.metrics
let tracing ctx = ctx.tracing
let tracer ctx = Option.map Trace.Sharded.tracer ctx.tracing

(* Merge every domain's buffered spans into the sink, then flush the
   sink itself. Call from one coordinator thread. *)
let flush ctx =
  Option.iter Trace.Sharded.flush ctx.tracing;
  Option.iter Sink.flush ctx.sink
let flush_opt = function None -> () | Some ctx -> flush ctx

(* Which work counter a query kernel reports through its [?work] arg. *)
type work =
  | Vertices
  | Heap_pops
  | No_work

let work_counter ctx = function
  | Vertices -> Some ctx.vertices_visited
  | Heap_pops -> Some ctx.heap_pops
  | No_work -> None

let span ctx name ?attrs f =
  match ctx.tracing with
  | None -> f ()
  | Some sh -> Trace.with_span (Trace.Sharded.tracer sh) name ?attrs f

let maybe_span obs name ?attrs f =
  match obs with
  | None -> f ()
  | Some ctx -> span ctx name ?attrs f

(* A query kind resolved against one context: its latency histogram,
   work counter and span name, so running a query builds no strings and
   takes no registry lock. *)
type query = {
  ctx : ctx;
  hist : Metrics.Histogram.t;
  work : Counter.t option;
  span_name : string;
}

let query ctx ~name ~work =
  {
    ctx;
    hist =
      Metrics.histogram ctx.metrics
        ~help:("Latency of " ^ name ^ " queries")
        ("olar_query_" ^ name ^ "_seconds");
    work = work_counter ctx work;
    span_name = "query." ^ name;
  }

(* Run [f] with the kind's work counter, timing it into the kind's
   histogram (also when [f] raises). *)
let timed q f () =
  let t0 = q.ctx.clock () in
  match f q.work with
  | r ->
    Metrics.Histogram.observe q.hist (q.ctx.clock () -. t0);
    r
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Metrics.Histogram.observe q.hist (q.ctx.clock () -. t0);
    Printexc.raise_with_backtrace e bt

(* One query: counts it, times it, and wraps it in a trace span carrying
   the work delta when tracing is on. [f] receives the [?work] argument
   to pass down to the kernel. *)
let query_span q f =
  Counter.incr q.ctx.queries;
  match q.ctx.tracing with
  | None -> timed q f ()
  | Some sh ->
    let before = match q.work with Some c -> Counter.value c | None -> 0 in
    let attrs () =
      match q.work with
      | None -> []
      | Some c -> [ ("work", Trace.Int (Counter.value c - before)) ]
    in
    Trace.with_span (Trace.Sharded.tracer sh) q.span_name ~attrs (timed q f)

let attach_counter ctx ?help ?name c = Metrics.attach_counter ctx.metrics ?help ?name c

let set_build_info ctx ~version =
  Metrics.Gauge.set
    (gauge ctx ~help:"Constant 1; build metadata lives in the labels"
       ~labels:[ ("version", version) ]
       "olar_build_info")
    1.0
