(** Engine-facing façade over {!Metrics}, {!Trace}, and {!Sink}.

    An {!type-t} is [ctx option], exposed concretely on purpose: the
    engine dispatches on it with a bare [match], so the disabled path
    ([None]) runs the exact uninstrumented code and allocates nothing —
    closures for the instrumented path only exist inside the [Some]
    branch. This is what keeps the null-sink overhead on the query hot
    path at zero (see DESIGN.md, Observability).

    Domain safety: the metrics side of a context — counters, gauges,
    histograms, the registry — is safe to share across domains (see
    {!Metrics}). The trace side is sharded per domain
    ({!Trace.Sharded}): each domain gets its own span stack and buffer,
    tagged with the domain id, and {!flush} merges the buffers into the
    sink on the calling (coordinator) thread. Within one domain the
    stack tracer is still single-threaded — systhreads sharing a domain
    must not interleave enter/exit on it (use
    {!Trace.Sharded.inject} for prebuilt spans instead). *)

module Counter = Olar_util.Timer.Counter

type ctx

type t = ctx option

val disabled : t

(** [create ()] is an enabled context with a fresh registry holding the
    shared query counters. [trace] turns on span collection into the
    given sink; [clock] (default [Unix.gettimeofday]) feeds both span
    timing and latency histograms — inject a fake for deterministic
    tests. *)
val create : ?clock:(unit -> float) -> ?trace:Sink.t -> unit -> t

val metrics : ctx -> Metrics.t

(** The sharded tracing fabric, when [?trace] was given — for callers
    that inject prebuilt spans or merge buffers themselves. *)
val tracing : ctx -> Trace.Sharded.sharded option

(** The {e calling domain's} tracer, interned on first use. Distinct
    domains get distinct tracers over disjoint span-id blocks. *)
val tracer : ctx -> Trace.t option

(** [flush ctx] merges every domain's buffered spans into the trace
    sink (in shard order, child-first within each shard) and flushes
    the sink. Call from one coordinator thread. *)
val flush : ctx -> unit

val flush_opt : t -> unit

(** Which work counter a query kernel reports through its [?work]
    argument: graph-traversal kernels count vertex expansions,
    best-first support queries count heap pops. *)
type work =
  | Vertices
  | Heap_pops
  | No_work

(** A query kind resolved against one context: the
    [olar_query_<name>_seconds] histogram, the selected work counter and
    the [query.<name>] span name. Resolve it once per kind (the engine
    keeps one per kind); running it then builds no strings and takes no
    registry lock. *)
type query

(** [query ctx ~name ~work] resolves the kind [name], registering its
    histogram (help text ["Latency of <name> queries"]) on first use. *)
val query : ctx -> name:string -> work:work -> query

(** [query_span q f] runs one query of kind [q]: increments
    [olar_queries_total], times [f] into the kind's histogram, passes
    the work counter to [f] as its [?work] argument, and — when tracing
    — emits a [query.<name>] span carrying the work delta. The
    histogram is recorded even if [f] raises. *)
val query_span : query -> (Counter.t option -> 'a) -> 'a

(** [span ctx name f] is a plain trace span ([f ()] unchanged when
    tracing is off). [attrs] is evaluated at close time. *)
val span :
  ctx -> string -> ?attrs:(unit -> (string * Trace.value) list) -> (unit -> 'a) -> 'a

(** [maybe_span obs name f] is {!span} when [obs] is enabled and a bare
    [f ()] otherwise — for cold paths (mining passes, threshold probes)
    where building the closure costs nothing relative to the work. *)
val maybe_span :
  t -> string -> ?attrs:(unit -> (string * Trace.value) list) -> (unit -> 'a) -> 'a

(** Registry shorthands. *)
val counter : ctx -> ?help:string -> string -> Counter.t

val gauge :
  ctx -> ?help:string -> ?labels:(string * string) list -> string -> Metrics.Gauge.t

(** [update_runtime_gauges ctx] samples process-level state into gauges:
    [olar_gc_minor_collections_total], [olar_gc_major_collections_total],
    [olar_heap_words] (from [Gc.quick_stat]) and [olar_uptime_seconds]
    (clock now minus clock at [create]). Sampled, not maintained — call
    right before exposition. *)
val update_runtime_gauges : ctx -> unit

(** [set_build_info ctx ~version] registers the Prometheus-style info
    gauge [olar_build_info{version="..."} 1]. *)
val set_build_info : ctx -> version:string -> unit

(** [attach_counter ctx c] adopts an externally created counter (e.g. a
    mining [Stats] field) into the registry; see
    {!Metrics.attach_counter}. *)
val attach_counter : ctx -> ?help:string -> ?name:string -> Counter.t -> unit
