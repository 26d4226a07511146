(** Domain-parallel query serving over one shared lattice.

    The paper's economics — preprocess once, query many — makes the
    serving path the thing to scale: the lattice is built offline and
    every online query is a cheap, read-only graph search. A [Pool.t]
    runs those searches on N OCaml 5 domains at once:

    - the CSR {!Olar_core.Lattice.t} is shared by reference across all
      domains with no locking — it is immutable post-build, a stated
      invariant of [lattice.mli];
    - everything mutable is per-domain: each domain owns a private
      {!Olar_core.Engine} view (its own {!Olar_core.Scratch}) wrapped
      in a private {!Session} cache, so query state and cached results
      never cross domains;
    - telemetry is shared safely: all sessions bump the same atomic
      {!Olar_obs.Metrics} instruments, and tracing is sharded per
      domain ({!Olar_obs.Trace.Sharded}): each domain's spans land in
      its own buffer, domain-tagged, and merge into the sink when one
      thread calls {!Olar_obs.Obs.flush}.

    {2 Continuous dispatch}

    Requests are dispatched {b continuously}, not in rounds: each
    worker domain owns a bounded submission shard (a fixed ring of
    pooled cells, so the steady-state dispatch path allocates nothing),
    and {!submit} places each request into the least-loaded shard. An
    idle worker drains its own shard first, then {b steals} from
    sibling shards, and only parks — on its own condvar, nobody else's —
    when every shard is empty. Waking is therefore one signal to one
    domain; there is no global broadcast and no batch barrier between
    requests.

    Any thread on any domain may call {!submit}, {!drain} and the other
    entry points concurrently. One {e intake lock} inside the pool
    serialises every producer-side step (shard pick, ring push, wake),
    so each ring keeps its single-producer protocol, and everything
    that runs on slot 0's session: append folds and publication,
    inline execution in a 1-domain pool, backpressure, and the helping
    in {!drain}. Slot 0 belongs to no thread; whoever holds the lock
    runs on it. When every shard is full, {!submit} applies
    backpressure by executing one queued request inline on slot 0
    before retrying — the pool can never be outrun by its own intake.
    A fold therefore holds the lock for its whole duration, and other
    submitters wait for it.

    {2 Snapshot publication (non-blocking appends)}

    An {!Append} does {b not} quiesce the pool. The submitter folds
    the delta on slot 0 through the serial {!Session.append} — the single
    mutation path — into a {e new} immutable engine, wraps it with one
    {!Olar_core.Engine.view} per worker as a {e snapshot} (generation
    [g+1]), and publishes it with a single atomic pointer swap. Reads
    in flight keep traversing the old snapshot untouched; a worker
    adopts the newest published snapshot at its next claim (and before
    parking), so reads in flight never block on an append and an append
    never waits for reads — RCU over the lattice's immutability
    invariant. (Submitting during a fold does wait: see the intake lock
    above.)
    Retired snapshots are reclaimed by generation: each slot records
    the generation it has adopted, and a retired snapshot is dropped
    once every slot has advanced past it (no future claim can reach it,
    since adoption only moves forward).

    Ordering is still deterministic where it matters: the pointer swap
    happens before the append's {!submit} returns, so every request
    submitted {e after} that return executes on generation [>= g+1]
    (the claim's stamp read pairs with the publish). Each completion
    records the generation and engine epoch its request actually
    executed on, which is what the differential tests check digests
    against. The batch helper {!run} additionally drains
    before each [Append], preserving the old sequential semantics —
    positional digest equality with a serial {!Session} — for batch
    callers and capture replay.

    A request that raises (e.g. {!Olar_core.Query.Below_primary_threshold})
    yields {!R_error} rather than poisoning the stream; the same
    exception raises identically in serial execution, so error
    responses are digest-stable too. *)

open Olar_data

type t

(** One query, by value. With {!response} this is the request
    vocabulary of the serving stack: a {!Olar_replay.Record} key
    converts to a request ({!Olar_replay.Record.to_request}),
    {!exec} turns a request into a response, and the replay layer
    digests the response ({!Olar_replay.Record.digest_response}).
    [Append] folds a delta into the store (in a pool: and publishes a
    new snapshot generation). *)
type request =
  | Find_itemsets of { containing : Itemset.t; minsup : float }
  | Count_itemsets of { containing : Itemset.t; minsup : float }
  | Essential_rules of {
      containing : Itemset.t;
      constraints : Olar_core.Boundary.constraints;
      minsup : float;
      minconf : float;
    }
  | All_rules of {
      containing : Itemset.t;
      constraints : Olar_core.Boundary.constraints;
      minsup : float;
      minconf : float;
    }
  | Single_consequent_rules of {
      containing : Itemset.t;
      minsup : float;
      minconf : float;
    }
  | Support_for_k_itemsets of { containing : Itemset.t; k : int }
  | Support_for_k_rules of { involving : Itemset.t; minconf : float; k : int }
  | Boundary of {
      target : Itemset.t;
      constraints : Olar_core.Boundary.constraints;
      minconf : float;
    }
  | Append of Database.t

(** A result, materialized by value at execution time (itemsets and
    support counts, not vertex ids) so it stays meaningful after a
    later append swaps the lattice. [R_items] is in canonical order
    (support descending, id ascending); [R_promoted] carries the
    promotion frontier and the post-append database size — exactly the
    inputs to the replay digest for each kind. *)
type response =
  | R_items of (Itemset.t * int) array
  | R_count of int
  | R_rules of Olar_core.Rule.t list
  | R_level of float option
  | R_entries of (Itemset.t * float) list
  | R_promoted of { promoted : Itemset.t list; db_size : int }
  | R_error of string

(** [exec session req] executes [req] serially on [session] — the one
    map from request kinds to {!Session} calls. Find answers are
    materialized from the session's vertex ids into (itemset, support
    count) pairs; an [Append] folds through {!Session.append} and
    answers the promotion frontier with the post-append database size.
    Raises whatever the session raises (e.g.
    {!Olar_core.Query.Below_primary_threshold}). The pool runs every
    request through it, wrapped so an exception becomes {!R_error};
    {!Olar_replay.Recorder.run} and the CLI run it bare. *)
val exec : Session.t -> request -> response

(** What a delivery callback learns about the execution it is being
    handed: [latency_s] is the execution seconds (claim-to-completion,
    shard wait excluded; [0.] when expired); [wait_s] is the seconds
    between the request being placed in a shard and a domain claiming
    it ([0.] for inline execution); [expired] is true when the request
    was claimed past its [deadline] and shed unexecuted — the response
    is then [R_error "deadline exceeded"]; [gen] is the snapshot
    generation the request executed on (0 before any append, +1 per
    append); [epoch] is the {!Olar_core.Engine.epoch} of that
    snapshot's engine — the value a capture records, taken from the
    {b executing} domain's adopted view, never from a later published
    one; [path] is how the executing slot's {!Session} served the
    request ({!Session.last_path}, read on that domain right after
    execution), [Passthrough] for a shed or failed request. *)
type completion = {
  latency_s : float;
  wait_s : float;
  expired : bool;
  epoch : int;
  gen : int;
  path : Session.path;
}

(** [create engine] spawns the pool.
    @param domains total domains serving queries, including the
      caller's (default [Domain.recommended_domain_count ()]); [1]
      means no domains are spawned and every request executes inline
      in {!submit}. Raises [Invalid_argument] when [< 1].
    @param budget_bytes per-domain session-cache budget, as
      {!Session.create} (so a pool holds [domains] caches of this size
      each); [0] disables caching.
    Engines whose obs context carries a tracer are fully supported:
    each domain traces into its own shard (see {!Olar_obs.Trace.Sharded});
    the caller is responsible for flushing the merged spans. *)
val create : ?domains:int -> ?budget_bytes:int -> Olar_core.Engine.t -> t

(** [domains t] is the serving width, including the caller's domain. *)
val domains : t -> int

(** [engine t] is the currently published snapshot's engine (replaced
    at every append). Racy by design: a worker mid-request may still be
    executing on an older snapshot — per-response state belongs in
    {!completion}. *)
val engine : t -> Olar_core.Engine.t

(** [generation t] is the currently published snapshot generation: 0
    at {!create}, +1 per successful append fold. *)
val generation : t -> int

(** {1 Continuous submission}

    The hot path of every {!Olar_net.Server} connection thread: one
    request in, one callback out, no batch arrays in between. *)

(** [submit t req k] dispatches [req] into a worker shard and returns
    once it is placed; [k resp c] fires when the request completes, on
    {b whichever domain} executed it, with [c] the {!completion} for
    that execution. Safe from any thread (see the intake lock above);
    it blocks while another submitter holds the lock, e.g. during a
    fold. Callbacks must be domain-safe and fast, must not call back
    into the pool, and should not raise — an exception from [k] is
    recorded and re-raised at the next {!drain}, never propagated into
    a worker loop. An [Append] is folded and published (and delivered)
    synchronously before [submit] returns, {b without} waiting for
    in-flight reads — they complete on the old snapshot; with
    [domains = 1] every request is synchronous.
    @param deadline absolute {!Olar_util.Timer.monotonic_s} time; a
      request claimed after it is not executed and its completion has
      [expired = true]. Default: none.
    Raises [Invalid_argument] after {!shutdown}. *)
val submit :
  ?deadline:float -> t -> request -> (response -> completion -> unit) -> unit

(** [drain t] blocks until every submitted request has delivered,
    holding off new submissions meanwhile. While shards are non-empty
    the draining thread executes queued requests itself on slot 0 (it
    only parks for requests already claimed by a worker), so a drain is
    never slower than serial execution of the backlog. Re-raises the
    first callback exception recorded since the last drain, after the
    pool is quiet. *)
val drain : t -> unit

(** {1 Batch helper} *)

(** [run t reqs] submits the batch and returns each response with its
    {!completion} in submission order: [(run t reqs).(i)] answers
    [reqs.(i)]. A thin layer over {!submit} + {!drain}; unlike raw
    {!submit}, it drains before each [Append] in the batch, so a batch
    keeps the sequential semantics of a serial {!Session}: responses
    are positionally digest-equal to serial execution of the same
    array, and the completion at [i] has [gen] equal to the number of
    successful [Append]s in [reqs.(0..i)]. Raises [Invalid_argument] after
    {!shutdown}. *)
val run : t -> request array -> (response * completion) array

(** {1 Introspection} *)

(** [stats t] is each slot's session-cache accounting, index 0 the
    intake slot. *)
val stats : t -> Session.stats array

(** Cumulative execution accounting for one pool slot: how many
    requests the slot has executed since {!create} and the seconds it
    spent executing them (claim-to-completion, shard wait excluded).
    Appends are charged to slot 0. Internally the
    seconds accumulate as integer nanoseconds under
    [Atomic.fetch_and_add] — no CAS retry under contention — and
    convert on read. *)
type domain_stat = {
  requests : int;
  busy_s : float;
}

(** [domain_stats t] samples each slot's accounting, index 0 the
    intake slot. Safe to call from any thread at any time; each field
    is an independent atomic read. *)
val domain_stats : t -> domain_stat array

(** [dispatch_wait t] is the pool's dispatch-wait histogram
    ([olar_pool_dispatch_wait_seconds]): for every request that crossed
    a shard, the seconds between {!submit} placing it and a domain
    claiming it. Registered in the engine's metrics registry when its
    obs context is enabled; maintained privately (for this accessor)
    otherwise. Inline executions (a 1-domain pool, append folds,
    backpressure) never waited and are not observed. *)
val dispatch_wait : t -> Olar_obs.Metrics.Histogram.t

(** [shard_depths t] samples each worker shard's queued-request count,
    index [k] the shard owned by pool slot [k+1]; empty for a 1-domain
    pool. Racy-but-consistent snapshot reads, safe from any thread. *)
val shard_depths : t -> int array

(** [retired_snapshots t] is the number of superseded snapshots not yet
    reclaimed — published generations some domain may still be reading.
    Runs a reclamation sweep first (under the intake lock), so the
    count reflects current adoption. Converges
    to 0 once every domain has claimed a request or parked since the
    last append. *)
val retired_snapshots : t -> int

(** [shutdown t] drains outstanding requests, then joins the worker
    domains. Idempotent; the pool rejects new work afterwards. *)
val shutdown : t -> unit

(** [with_pool engine f] is [f pool] with a guaranteed {!shutdown}. *)
val with_pool :
  ?domains:int -> ?budget_bytes:int -> Olar_core.Engine.t -> (t -> 'a) -> 'a
