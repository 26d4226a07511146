(** Cross-query session cache with monotone prefix refinement.

    The paper's economics is {e preprocess once, query many}: an analyst
    interactively re-issues the same handful of queries at nearby
    [(minsup, minconf)] settings, yet the {!Olar_core.Engine} re-walks
    the lattice for every call. A [Session.t] wraps an engine with a
    byte-budgeted, LRU-evicted, epoch-invalidated result cache keyed on
    the canonical query (kind, start itemset, constraints, thresholds),
    following Goethals & Van den Bussche's observation that overlap
    between successive queries dominates an interactive mining session.

    {2 Monotone refinement}

    [FindItemsets] results are stored once per start itemset as a
    compact vertex-id array in canonical order
    ({!Olar_core.Lattice.compare_strength}: support desc, ties ascending
    id), together with the lowest support {e floor} they were computed
    at. Because raising the cut can only drop a tail of that
    support-descending sequence, the answer at any [s' >= floor] is a
    literal {b prefix} of the cached array — served by one binary search
    over {!Olar_core.Lattice.support_array}, no graph traversal, no
    sort. A query below the floor recomputes and {e widens} the entry
    (the floor only ever moves down), so a drill-down sweep
    [s1 > s2 > ...] pays full price once and prefix price thereafter.

    The same subsumption applies to the reverse queries: a cached
    [FindSupport] top-k run answers every [k' <= k] (the level is the
    [k']-th highest support in the cached pop order) and, when the run
    exhausted the reachable set, every [k' > k] as well (the answer is
    [None]). Rule queries are cached under their exact key — essential
    rules are {e not} refinable across [minsup], because strict
    redundancy pruning depends on which children are large at the lower
    threshold.

    {2 Eviction and invalidation}

    Entries live on an intrusive LRU list under an [estimated_bytes]
    budget; inserting past the budget evicts from the cold tail
    (counted). Every entry is stamped with the engine {!Olar_core.Engine.epoch}
    it was computed under; {!append} swaps in an engine with a fresh
    epoch, so stale entries can never be served — they are detected and
    dropped lazily at lookup time (and remain subject to LRU eviction
    meanwhile). {!flush} reclaims everything eagerly.

    {2 Telemetry}

    When the wrapped engine carries an enabled {!Olar_obs.Obs.t}, the
    session maintains [olar_cache_hits_total], [olar_cache_misses_total],
    [olar_cache_refines_total] (refines are the subset of hits served by
    prefix/top-k subsumption rather than verbatim),
    [olar_cache_evictions_total], the [olar_cache_resident_bytes] gauge,
    and per-kind hit-latency histograms
    [olar_cache_hit_{find,rules,topk}_seconds]. With telemetry disabled
    the same cells are kept privately for {!val-stats}.

    {2 One query path}

    Every query validates its arguments once, before any lookup, with
    the engine's own checks ({!Olar_core.Engine.cut},
    {!Olar_core.Engine.check_k}), so an invalid request raises the same
    exception whatever the budget and never reaches the engine. A valid
    one is then served by one combinator: lookup, a covering entry is a
    hit or refine, anything else computes through the engine's validated
    entry points and widens or inserts the entry. With
    [budget_bytes = 0] there is no table: the same compute and answer
    run as a passthrough (a count runs the counting kernel, so it
    allocates nothing beyond the engine's own). Either way a query that
    executes counts once in [olar_queries_total] and once in its
    [olar_query_<kind>_seconds] histogram, under the engine's span; a
    hit or refine counts only in [olar_cache_hits_total] and
    [olar_cache_hit_*_seconds]. *)

open Olar_data

type t

(** How the most recent query on this session was served. [Hit] is a
    verbatim cache hit, [Refine] a hit served by prefix/top-k
    subsumption of a broader entry, [Miss] a recompute that populated
    the cache, and [Passthrough] a call that never consulted it
    (disabled cache, {!boundary}, {!append}). Read it back immediately
    after the call — the next query overwrites it. The workload
    recorder ({!Olar_replay.Recorder}) tags every log record with this. *)
type path =
  | Hit
  | Refine
  | Miss
  | Passthrough

(** Point-in-time cache accounting (all zero when the cache is
    disabled). [refines] is a subset of [hits]. *)
type stats = {
  hits : int;
  misses : int;
  refines : int;
  evictions : int;
  resident_bytes : int;
  entries : int;
  budget_bytes : int;
}

(** [create engine] wraps [engine] in a session cache.
    @param budget_bytes estimated-resident-size budget (default
      32 MiB); [0] disables caching entirely (pure passthrough). Raises
      [Invalid_argument] when negative. *)
val create : ?budget_bytes:int -> Olar_core.Engine.t -> t

(** [engine t] is the engine currently behind the session (replaced by
    {!append}). *)
val engine : t -> Olar_core.Engine.t

(** [enabled t] is [false] for a [budget_bytes = 0] passthrough. *)
val enabled : t -> bool

(** [last_path t] is how the most recent query was served
    ([Passthrough] before any query has run). *)
val last_path : t -> path

(** {1 Queries}

    Each mirrors the {!Olar_core.Engine} function of the same name —
    same arguments, same results, same exceptions — with answers served
    from the cache when possible. *)

(** [itemset_ids t ~minsup] is {!Olar_core.Engine.itemsets} as a fresh
    array of vertex ids in canonical order — the compact form the cache
    stores; on a cache hit this is one binary search plus a blit. *)
val itemset_ids :
  ?containing:Itemset.t -> t -> minsup:float -> Olar_core.Lattice.vertex_id array

val count_itemsets : ?containing:Itemset.t -> t -> minsup:float -> int

val essential_rules :
  ?containing:Itemset.t ->
  ?constraints:Olar_core.Boundary.constraints ->
  t ->
  minsup:float ->
  minconf:float ->
  Olar_core.Rule.t list

val all_rules :
  ?containing:Itemset.t ->
  ?constraints:Olar_core.Boundary.constraints ->
  t ->
  minsup:float ->
  minconf:float ->
  Olar_core.Rule.t list

val single_consequent_rules :
  ?containing:Itemset.t -> t -> minsup:float -> minconf:float -> Olar_core.Rule.t list

val support_for_k_itemsets : t -> containing:Itemset.t -> k:int -> float option

val support_for_k_rules :
  t -> involving:Itemset.t -> minconf:float -> k:int -> float option

(** [boundary t ~target ~minconf] forwards to
    {!Olar_core.Engine.boundary}. Never cached ([Passthrough]):
    boundary keys — full constraint tuples — rarely repeat within a
    session relative to the answer's cost. *)
val boundary :
  ?constraints:Olar_core.Boundary.constraints ->
  t ->
  target:Itemset.t ->
  minconf:float ->
  (Itemset.t * float) list

(** {1 Maintenance} *)

(** [append t delta] folds the batch into the engine
    ({!Olar_core.Engine.append}) and swaps the refreshed engine — with
    its fresh epoch — into the session, returning the promotion
    frontier. Cached entries from the old epoch become unservable
    immediately and are reclaimed lazily. *)
val append : ?domains:int -> t -> Database.t -> Itemset.t list

(** [adopt_engine t engine] swaps [engine] into the session without
    running an append — used by {!Pool} when a worker adopts a newly
    published snapshot at its next claim: the append delta is folded
    once on slot 0 and each worker session then adopts its
    {!Olar_core.Engine.view} of the published engine. Cache
    consequences are the same as {!append}: entries stamped with the
    old epoch stop being servable. *)
val adopt_engine : t -> Olar_core.Engine.t -> unit

(** [flush t] drops every cached entry (accounting counters are kept). *)
val flush : t -> unit

(** [stats t] reads the accounting counters. *)
val stats : t -> stats
