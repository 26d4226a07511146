(** One line of the workload log: the full query key, the result
    digest, and the per-query cost observations.

    A record is what the {!Recorder} emits per query and what
    {!Replay} re-executes. The wire format is one compact JSON object
    per line (jsonl), self-describing enough to rebuild the exact call:
    kind, start itemset, thresholds, boundary constraints, [k], and —
    for appends — the delta transactions themselves. Alongside the key
    it carries the {e outcome}: an FNV-1a digest of the result in
    canonical order (see {!digest} semantics in DESIGN.md §9), the
    result size, wall-clock latency, the traversal work counters, and
    which cache path the session served it from. *)

open Olar_data

type kind =
  | Find_itemsets
  | Count_itemsets
  | Essential_rules
  | All_rules
  | Single_consequent_rules
  | Support_for_k_itemsets
  | Support_for_k_rules
  | Boundary
  | Append

(** How the session served a query: {!Olar_serve.Session.path},
    re-exported so a record's cache field is the session's own value. *)
type cache_path = Olar_serve.Session.path =
  | Hit
  | Refine
  | Miss
  | Passthrough

type t = {
  seq : int;  (** position in the log, 0-based *)
  kind : kind;
  containing : Itemset.t;
      (** start itemset: [containing] for find/count/rules,
          [involving] for rule-support, the target for boundary;
          empty otherwise *)
  antecedent_includes : Itemset.t;  (** boundary/rule constraints (P) *)
  consequent_includes : Itemset.t;  (** boundary/rule constraints (Q) *)
  allow_empty_antecedent : bool;
  minsup : float option;  (** fractional, as the caller passed it *)
  minconf : float option;
  k : int option;  (** rank for the FindSupport flavours *)
  delta : int list list;  (** append only: the batch's transactions *)
  delta_num_items : int;  (** append only: the delta database's universe *)
  cache : cache_path;  (** how the session served it *)
  digest : Fnv.t;  (** FNV-1a over the canonical-order result *)
  result_size : int;  (** itemsets / rules returned, count value, … *)
  latency_s : float;
  vertices : int;
      (** vertex expansions attributed to this query. A serving
          daemon's capture records 0 here and in [heap_pops]: the work
          counter cells are shared by every pool domain, so a delta
          taken around one request would count its neighbours' work
          too ({!Replay.run_pool} reports only aggregate work for the
          same reason). *)
  heap_pops : int;  (** best-first pops attributed to this query *)
  epoch : int;
      (** engine epoch the query ran against — informational only;
          epochs are process-wide counters and are NOT compared by
          replay *)
}

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val cache_path_to_string : cache_path -> string

(** [to_json_line r] is the compact one-line JSON encoding (no trailing
    newline). Empty itemsets, [None] thresholds, and append-only fields
    are omitted. *)
val to_json_line : t -> string

(** [of_json_line s] parses one log line, strictly: unknown kinds, bad
    digests, or missing required fields are [Error]. *)
val of_json_line : string -> (t, string) result

(** [key_to_json_line r] encodes only the query key — kind, itemsets,
    thresholds, delta — omitting every outcome field. This is the wire
    body a client POSTs to the serving daemon's [/query] endpoint. *)
val key_to_json_line : t -> string

(** [key_of_json_line s] parses a query key: the same grammar as
    {!of_json_line} except that ["v"], ["seq"] and the outcome fields
    are optional (defaulting to version 1, seq 0, cache [Passthrough],
    an empty digest and zero cost). Present fields must still parse;
    unknown kinds are still rejected. *)
val key_of_json_line : string -> (t, string) result

(** {1 The request vocabulary}

    A record key, an {!Olar_serve.Pool.request} and an
    {!Olar_serve.Pool.response} are the one vocabulary every entry
    point speaks: the CLI, the {!Recorder}, {!Replay}, the pool and the
    serving daemon all convert a key with {!to_request}, execute it with
    {!Olar_serve.Pool.exec}, and describe the response with
    {!digest_response} and {!result_size}. *)

(** [key kind] is a query key with no outcome (seq 0, cache
    [Passthrough], empty digest, zero cost — what
    {!key_of_json_line} yields for a bare key). [containing] is the
    start itemset (the [involving] set of a rule-support key, the
    target of a boundary key); [constraints] default to
    {!Olar_core.Boundary.unconstrained}; [delta] is an append's batch. *)
val key :
  ?containing:Itemset.t ->
  ?constraints:Olar_core.Boundary.constraints ->
  ?minsup:float ->
  ?minconf:float ->
  ?k:int ->
  ?delta:Database.t ->
  kind ->
  t

(** [to_request r] is the pool request for [r]'s query key, or [Error]
    when the key is structurally incomplete (e.g. a find without
    minsup, an append without [num_items]). *)
val to_request : t -> (Olar_serve.Pool.request, string) result

(** [digest_response resp] is the FNV-1a digest of a response, [None]
    for {!Olar_serve.Pool.R_error} (an error has no digestible result).
    The digest semantics are the replay contract (DESIGN.md §9):
    itemset answers digest each (itemset, integer support count) in
    canonical order; counts digest the count; rule answers digest each
    (antecedent, consequent, support count, antecedent count) in
    generation order; FindSupport answers digest a presence tag then
    the bits of the fractional level; boundary answers digest each
    (itemset, fractional support bits) in kernel order; appends digest
    the promotion frontier and the new database size. *)
val digest_response : Olar_serve.Pool.response -> Fnv.t option

(** [result_size resp] is the record's [result_size] for a response:
    itemsets, rules or entries returned, the count itself for a count,
    1 or 0 for a FindSupport level, the promotion frontier's length for
    an append, 0 for an error. *)
val result_size : Olar_serve.Pool.response -> int

(** [with_outcome key ~seq ~cache ~latency_s ~vertices ~heap_pops
    ~epoch resp] is [key] stamped with the outcome of one execution:
    the given sequence number, cache path and cost, and the digest and
    size of [resp]. [None] for an {!Olar_serve.Pool.R_error}, which is
    never recorded. The {!Recorder} and the serving daemon's capture
    both build their records here. *)
val with_outcome :
  t ->
  seq:int ->
  cache:cache_path ->
  latency_s:float ->
  vertices:int ->
  heap_pops:int ->
  epoch:int ->
  Olar_serve.Pool.response ->
  t option

(** [pp ppf r] renders the record as a human-readable EXPLAIN block:
    the query key on the first line, outcome (cache path, size, digest)
    on the second, cost (latency, work counters) on the third. *)
val pp : Format.formatter -> t -> unit
