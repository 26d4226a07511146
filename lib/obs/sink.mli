(** Destinations for closed trace spans.

    A sink is the [emit] half of a {!Trace.t} plus a [flush] hook the
    engine calls at the end of a traced operation. Sinks receive spans
    in close order (children before parents). *)

type t

val emit : t -> Trace.span -> unit
val flush : t -> unit

(** Discards everything. Shared value; emitting to it allocates
    nothing. *)
val null : t

(** [memory ()] is a sink plus an accessor returning the spans received
    so far, in emission (close) order. *)
val memory : unit -> t * (unit -> Trace.span list)

(** [value_to_json v] is a span attribute value as JSON, as
    {!span_to_json} writes it. *)
val value_to_json : Trace.value -> Jsonx.t

(** [span_to_json s] is the JSON object written by the jsonl sinks —
    keys [id], [parent] (null for roots), [depth], [name], [start_s],
    [duration_s], [attrs]. *)
val span_to_json : Trace.span -> Jsonx.t

(** [jsonl_writer write] emits one compact JSON object per line through
    [write]. [flush] defaults to a no-op. *)
val jsonl_writer : ?flush:(unit -> unit) -> (string -> unit) -> t

(** [jsonl oc] writes JSON lines to a channel; [flush] flushes it. *)
val jsonl : out_channel -> t
