(** GC pause attribution from the OCaml 5 eventring.

    A consumer over [Runtime_events] that turns the runtime's own
    instrumentation into metrics: per-domain minor/major pause
    histograms ([olar_gc_pause_seconds{domain="0"}]), per-domain
    collection counters, and a bounded ring of recent pauses that the
    serving layer queries to taint slow requests whose execute phase
    overlapped a GC pause.

    The consumer does not own a thread: [olar serve] polls it from its
    GC-observer systhread; one-shot tools may poll it inline. All
    public operations are safe to call from any thread — the pause
    ring and clock calibration are mutex-protected, and the metric
    instruments are the registry's atomics — but [poll] itself must
    only run from one thread at a time (the cursor is not shared).

    Eventring timestamps are [CLOCK_MONOTONIC] nanoseconds, a
    different epoch from the wall-ish clock the serving stack stamps
    requests with. [start] bridges the two with a calibration user
    event: it writes a registered unit event, brackets the write with
    readings of [clock], and the first [poll] that sees the event
    computes [offset = mid(wall window) - ring timestamp]. Until that
    first poll completes, {!pause_overlapping} answers [None]
    (uncalibrated beats wrongly calibrated). [calibrate] may be called
    again at any time to refresh the offset against clock drift. *)

type t

(** [start ~metrics ()] enables this process's eventring
    ([Runtime_events.start]), attaches a consumer cursor, interns the
    GC metric instruments in [metrics], and writes the first
    calibration event. [clock] (default [Unix.gettimeofday]) must be
    the same clock the caller stamps request phases with, else
    {!pause_overlapping} windows are meaningless. [ring_capacity]
    bounds the recent-pause ring (default 512 pauses; older entries
    are overwritten). Raises [Failure] if the eventring cannot be
    started. *)
val start :
  metrics:Metrics.t ->
  ?clock:(unit -> float) ->
  ?ring_capacity:int ->
  unit ->
  t

(** [poll t] drains pending events, updating histograms, counters and
    the pause ring; returns the number of events consumed. Call from
    one thread only. *)
val poll : t -> int

(** [calibrate t] writes a fresh clock-sync event; the pairing happens
    on a later [poll]. *)
val calibrate : t -> unit

(** [calibrated t] is true once at least one calibration pair has been
    observed. *)
val calibrated : t -> bool

(** [pause_overlapping t ~t0 ~t1 ()] is the longest recorded GC pause
    whose span overlaps the wall-clock interval [\[t0, t1\]], in
    seconds — [None] when no pause overlaps or the clock offset is not
    yet calibrated. [domain] restricts the match to one eventring
    domain slot; omitted, any domain counts, which is the right
    default for pause-tainting requests: OCaml 5 minor collections are
    stop-the-world across domains, and [Domain.self]'s unique id (what
    the serving layer stamps on requests) is not the eventring slot, so
    a cross-clock exact-domain match would be spuriously precise. *)
val pause_overlapping :
  t -> ?domain:int -> t0:float -> t1:float -> unit -> float option

(** The cross-domain aggregate pause histogram. Not registered in the
    metrics registry (the per-domain [olar_gc_pause_seconds{domain=…}]
    series are the exposition truth; an unlabelled twin would
    double-count in aggregations) — exposed so the server can attach
    it to a sliding {!Window} for rolling pause quantiles. *)
val pauses : t -> Metrics.Histogram.t

(** Total pauses recorded since [start] (all domains, minor + major) —
    a cheap liveness probe for tests and /statusz. *)
val pause_count : t -> int

(** [stop t] frees the consumer cursor. The eventring itself stays on
    (other consumers may be attached); [poll] after [stop] is a no-op
    returning 0. *)
val stop : t -> unit
