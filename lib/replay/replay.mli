(** Deterministic re-execution of a captured workload log.

    [run] replays each {!Record.t} against a session through one
    {!Recorder}: {!Recorder.run} rebuilds the request from the record's
    key, executes it and emits the replayed record, whose digest is
    compared against the recorded one. The digest invariant leans on
    the canonical result orders pinned in the core kernels, so on the
    same lattice a mismatch is a correctness regression, not noise:
    nondeterminism would have to be introduced deliberately to break
    it.

    Appends are replayed too (the record carries the delta
    transactions), so a log that interleaves queries and maintenance
    drives the session through the same sequence of epochs the capture
    did. Latency and work totals are accumulated on both sides for the
    perf delta report; latency is wall-clock and machine-dependent,
    digests are not. *)

type outcome = {
  record : Record.t;  (** as captured *)
  replayed : Record.t option;
      (** the re-execution's record; [None] when the call raised *)
  ok : bool;  (** digests equal *)
}

type report = {
  total : int;
  mismatches : int;  (** digest mismatches, including raised calls *)
  errors : int;  (** replayed calls that raised (subset of mismatches) *)
  recorded_s : float;  (** summed recorded latency *)
  replayed_s : float;  (** summed replayed latency *)
  recorded_vertices : int;
  replayed_vertices : int;
  recorded_heap_pops : int;
  replayed_heap_pops : int;
}

(** [load path] reads a jsonl log. A final line without a trailing
    newline that does not parse is a capture torn mid-write (the writer
    died between the line and its newline): the records before it load,
    and the second component names the dropped line as
    ["PATH:N: torn final line ignored"]. Any other malformed line is an
    [Error] naming its line number. Raises [Sys_error] when the file
    cannot be read. *)
val load : string -> (Record.t list * string option, string) result

(** [run session records] replays the log in order. [on_outcome] fires
    after every record (for progress or EXPLAIN output). A record that
    raises — a query error or a structurally incomplete key — is an
    error outcome and the replay goes on. The session is mutated by
    replayed appends, exactly as during capture. *)
val run :
  ?on_outcome:(outcome -> unit) ->
  Olar_serve.Session.t ->
  Record.t list ->
  report

(** {1 Pool replay} *)

(** [request_of_record] is {!Record.to_request}: the
    {!Olar_serve.Pool} request for a record's query key, or [Error] when
    the record is structurally incomplete (e.g. a find without
    minsup). An alias kept only for the perfbench oracle, which calls
    it; new code calls {!Record.to_request}. *)
val request_of_record :
  Record.t -> (Olar_serve.Pool.request, string) result

(** [run_pool pool records] streams the log through a serving pool via
    {!Olar_serve.Pool.submit} — the server's continuous path —
    with appends quiescing the stream, walking the same epoch sequence
    the capture did — and compares each response digest against its
    record. Work counters on the replayed side are the
    {e aggregate} obs deltas for the whole batch (per-query attribution
    is impossible across domains; zero when telemetry is off).
    [on_response] fires per record in submission order. *)
val run_pool :
  ?on_response:(Record.t -> Olar_serve.Pool.response -> ok:bool -> unit) ->
  Olar_serve.Pool.t ->
  Record.t list ->
  report
