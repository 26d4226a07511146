(** Workload capture: execute query keys on a {!Olar_serve.Session}
    and log each one.

    {!run} takes a {!Record.t} query key, converts it to a pool request
    ({!Record.to_request}), executes it with the serial executor
    {!Olar_serve.Pool.exec} and returns the response. It also emits
    one {!Record.t} describing the call: the key, stamped by
    {!Record.with_outcome} with the sequence number, the digest and
    size of the response, the wall-clock latency, the traversal work
    attributed to the call, and the cache path the session took
    ({!Olar_serve.Session.last_path}). Work is read as deltas of the
    engine context's shared work counters, so cached and uncached
    paths are costed identically (zero when the engine has no obs
    context).

    Records reach the caller through [emit] — typically
    {!Record.to_json_line} appended to a jsonl file, or {!Record.pp}
    for an EXPLAIN view. [slow_s] turns the recorder into a slow-query
    log: only calls at or above the threshold are emitted (the sequence
    number still advances for every call, so a slow-query log preserves
    each record's position in the session).

    A query that raises emits nothing — there is no result to digest —
    and the sequence number does not advance. The digest semantics are
    {!Record.digest_response}'s. *)

type t

(** [create ~emit session] wraps [session]. [slow_s] (seconds, default
    [0.] = record everything) suppresses records for faster queries;
    [clock] (default {!Olar_util.Timer.monotonic_s}, which cannot go
    backwards under system clock steps) is injectable for tests.
    Latencies are additionally clamped at 0 so a backwards-running
    injected clock can never record a negative latency. *)
val create :
  ?slow_s:float ->
  ?clock:(unit -> float) ->
  emit:(Record.t -> unit) ->
  Olar_serve.Session.t ->
  t

val session : t -> Olar_serve.Session.t

(** Number of queries issued through this recorder so far (including
    ones below the slow threshold). *)
val count : t -> int

(** [run t key] executes [key] on the session and returns the response
    (never {!Olar_serve.Pool.R_error}: failures raise). The key's
    outcome fields are ignored and overwritten in the emitted record.
    Raises [Failure] when the key is structurally incomplete (see
    {!Record.to_request}) and re-raises whatever the query raises; in
    both cases nothing is emitted and the sequence number does not
    advance. An [Append] key mutates the session like
    {!Olar_serve.Session.append}. *)
val run : t -> Record.t -> Olar_serve.Pool.response
