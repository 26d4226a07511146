(** Metrics registry: counters, gauges, and log-scale latency histograms.

    A registry is a name-indexed collection of metric instruments that the
    engine and CLI expose through {!Exposition}. Counters are the repo's
    existing {!Olar_util.Timer.Counter} — the registry adopts them rather
    than wrapping them, so the query kernels' [?work] threading and the
    registry observe the very same cells (no dual bookkeeping).

    Instruments are interned by (name, labels): asking twice for the
    same name and constant labels returns the same instrument; distinct
    label sets under one name are distinct series (the Prometheus
    model, e.g. [olar_http_phase_seconds{phase="parse"}] vs
    [{phase="queue"}]). An unlabelled request that finds no exact match
    falls back to the first registered series of that name, so
    label-unaware callers keep finding labelled cells. Asking for an
    existing name with a different kind raises [Invalid_argument].

    Domain safety: every instrument stores its state in [Atomic.t]
    cells (counters via {!Olar_util.Timer.Counter}, gauge values,
    histogram buckets/sum/total), and the registry's name table is
    mutex-protected, so one registry may be shared by all domains of a
    serving pool. Exposition reads are per-instrument snapshots — no
    cross-instrument consistency is claimed. *)

module Counter = Olar_util.Timer.Counter

(** A gauge is a point-in-time float (lattice size, memory estimate). *)
module Gauge : sig
  type t

  val create : string -> t
  val name : t -> string
  val set : t -> float -> unit
  val set_int : t -> int -> unit
  val value : t -> float

  (** [max_float g v] raises the cell to [v] unless it is already
      higher — a lock-free monotone maximum (CAS loop), safe against
      racing writers where a read-then-[set] would lose updates. Used
      for high-water marks like the server's in-flight query peak. *)
  val max_float : t -> float -> unit

  val max_int : t -> int -> unit
end

(** Fixed-bucket histogram with logarithmic default bounds, sized for
    latencies in seconds: 46 buckets spanning 1µs to 1000s at five per
    decade, plus an overflow bucket. [observe] is allocation-free (a
    binary search over the bound array plus three mutations). *)
module Histogram : sig
  type t

  (** [log_bounds ?lo ?decades ?per_decade ()] is the default bound
      array: [lo *. 10. ** (i /. per_decade)] for [i] in
      [0 .. decades * per_decade]. Defaults: [lo = 1e-6], [decades = 9],
      [per_decade = 5]. *)
  val log_bounds : ?lo:float -> ?decades:int -> ?per_decade:int -> unit -> float array

  (** [of_bounds name bounds] requires strictly increasing [bounds];
      raises [Invalid_argument] otherwise. *)
  val of_bounds : string -> float array -> t

  val create : ?lo:float -> ?decades:int -> ?per_decade:int -> string -> t
  val name : t -> string

  (** [observe h v] records one sample. Allocation-free and safe to
      call from several domains at once (atomic bucket/total bumps; the
      float sum is a CAS loop). *)
  val observe : t -> float -> unit

  val count : t -> int
  val sum : t -> float

  (** [mean h] is [nan] when empty. *)
  val mean : t -> float

  (** [bounds h] and [counts h] are copies; [counts] has one more slot
      than [bounds] — the final slot counts overflow samples. *)
  val bounds : t -> float array

  val counts : t -> int array

  (** [quantile h q] is the upper bound of the smallest bucket at which
      the cumulative count reaches [q * total] — an upper-bound estimate
      in the Prometheus style. Overflow samples report [infinity]; an
      empty histogram reports [nan]. Raises [Invalid_argument] unless
      [0. <= q <= 1.]. *)
  val quantile : t -> float -> float

  (** [quantile_of ~bounds ~counts q] is the same walk over an explicit
      counts array (one more slot than [bounds]; the final slot is
      overflow) — the primitive {!Window} uses to take quantiles of
      windowed (diffed) bucket counts. Raises [Invalid_argument] on a
      length mismatch or [q] outside [0, 1]. *)
  val quantile_of : bounds:float array -> counts:int array -> float -> float
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type entry = {
  name : string;
  help : string;
  labels : (string * string) list;
      (** constant key/value pairs rendered on every exposition of the
          metric (e.g. [olar_build_info{version="1.4.0"}]); empty for
          most instruments *)
  metric : metric;
}

type t

val create : unit -> t

(** [counter t name] interns a counter. [help] is kept from the first
    registration. [labels] selects a labelled series of [name], as for
    {!gauge} (e.g. the per-domain GC collection counters). *)
val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t

(** [gauge t name] interns a gauge. [labels] (constant key/value pairs,
    in the Prometheus style) selects a labelled series of [name]; the
    same name with different labels is a different cell. *)
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

(** [histogram t name] interns a histogram with {!Histogram.log_bounds}
    defaults unless [bounds] is given (only consulted on first
    registration). [labels] selects a labelled series of [name], as for
    {!gauge}. *)
val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?bounds:float array ->
  string ->
  Histogram.t

(** [attach_counter t c] registers an externally created counter under
    [name] (default: [Counter.name c]). The attached counter IS the
    registered metric — mutations made through the original handle are
    visible in the registry. A second attach under the same name
    replaces the metric but keeps its registration order slot. *)
val attach_counter : t -> ?help:string -> ?name:string -> Counter.t -> unit

(** [find t name] is the entry registered under [name] — for a name
    that only exists as labelled series, the first registered one. *)
val find : t -> string -> entry option

(** [on_collect t hook] registers [hook] to run at every {!collect} —
    i.e. right before the registry is exposed. Hooks refresh sampled
    state (GC/heap/uptime gauges, pool utilization) so one-shot CLI
    runs and scrapes alike see current values without any caller
    remembering to sample first. Hooks run in registration order,
    outside the registry lock (they may intern instruments), and must
    not raise. *)
val on_collect : t -> (unit -> unit) -> unit

(** [collect t] runs the registered hooks. {!Exposition} calls this
    before rendering any format. *)
val collect : t -> unit

(** [iter t f] visits entries in registration order. *)
val iter : t -> (entry -> unit) -> unit

val to_list : t -> entry list
