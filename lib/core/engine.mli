(** The online mining engine — the "preprocess once, query many" façade.

    Ties the pieces together: preprocessing (threshold search + mining +
    lattice construction, Section 5), then the online queries of Section
    1.2 against the resulting lattice, with supports expressed as
    fractions at this level. All query functions answer without touching
    the transaction data.

    {2 Telemetry}

    An engine carries an {!Olar_obs.Obs.t}. With the default (disabled)
    context every query runs the exact uninstrumented code path and
    allocates nothing extra. With an enabled context each entry point
    increments [olar_queries_total], times itself into an
    [olar_query_<name>_seconds] histogram, feeds the traversal work
    counters ([olar_query_vertices_visited_total] for graph kernels,
    [olar_query_heap_pops_total] for the best-first support queries),
    and — when a trace sink is attached — emits a [query.<name>] span.
    Each kind's histogram is resolved once per engine, on its first
    query, so the per-query path builds no strings and takes no
    registry lock.
    Preprocessing additionally surfaces the mining counters
    ([olar_mining_db_passes_total], [olar_mining_candidates_total], …)
    and sets the [olar_lattice_vertices]/[_edges]/[_bytes] gauges. *)

open Olar_data

type t

(** {1 Preprocessing} *)

(** [preprocess db ~max_itemsets] finds the lowest primary threshold
    fitting roughly [max_itemsets] itemsets (binary search of Section 5),
    mines the primary itemsets and builds the adjacency lattice.

    @param obs telemetry context the engine keeps for its lifetime
      (default disabled). Preprocessing work lands in the registry and,
      when tracing, under a [preprocess] span with
      [threshold.probe]/[mine]/[mine.pass] children.
    @param slack the search window Ns (default: [max_itemsets / 20]).
    @param miner mining subroutine (default DHP, as in the paper).
    @param search [`Optimized] (default) uses early termination and
      cross-probe reuse; [`Naive] is the paper's [NaiveFindThreshold].
    @param stats accumulates preprocessing work. When [obs] is enabled a
      stats record is created internally if none is given, so the mining
      counters are always live in the registry.
    @param domains parallel counting domains every mining pass runs with
      (default 1 = sequential; ignored under [Use_fpgrowth]).
    Raises [Invalid_argument] when [max_itemsets < 1]. *)
val preprocess :
  ?obs:Olar_obs.Obs.t ->
  ?stats:Olar_mining.Stats.t ->
  ?miner:Olar_mining.Threshold.miner ->
  ?search:[ `Naive | `Optimized ] ->
  ?slack:int ->
  ?domains:int ->
  Database.t ->
  max_itemsets:int ->
  t

(** [preprocess_bytes db ~max_bytes] is {!preprocess} with the paper's
    actual constraint — a memory budget in bytes rather than an itemset
    count. The binary search accepts a lattice whose estimated footprint
    lies within [slack_bytes] (default [max_bytes / 20]) of the budget
    and never exceeds it. Raises [Invalid_argument] when
    [max_bytes < 1]. *)
val preprocess_bytes :
  ?obs:Olar_obs.Obs.t ->
  ?stats:Olar_mining.Stats.t ->
  ?miner:Olar_mining.Threshold.miner ->
  ?slack_bytes:int ->
  ?domains:int ->
  Database.t ->
  max_bytes:int ->
  t

(** [at_threshold db ~primary_support] skips the budget search and mines
    directly at the given fractional support (0 < s <= 1). Raises
    [Invalid_argument] outside that range. *)
val at_threshold :
  ?obs:Olar_obs.Obs.t ->
  ?stats:Olar_mining.Stats.t ->
  ?miner:Olar_mining.Threshold.miner ->
  ?domains:int ->
  Database.t ->
  primary_support:float ->
  t

(** [of_lattice lattice] wraps an existing (e.g. deserialized) lattice.
    When [obs] is enabled the lattice-shape gauges are set. *)
val of_lattice : ?obs:Olar_obs.Obs.t -> Lattice.t -> t

(** [epoch t] is the engine's {e generation number}: a process-wide
    monotone counter stamped at {!of_lattice} time, so every
    preprocess / {!append} / rebuild / {!load} yields a distinct epoch
    while {!with_obs} preserves it (same lattice, same answers). Result
    caches (see {!Olar_serve.Session}) tag entries with the epoch they
    were computed under and treat any mismatch as a miss — stale answers
    are structurally impossible. *)
val epoch : t -> int

(** [view t] is a per-domain view of [t]: the {b same} lattice, obs
    context and epoch, with a private {!Olar_core.Scratch}. Because the
    lattice is immutable once built (see [lattice.mli]), views answer
    identically to [t] and may run concurrently on other domains; the
    shared epoch means a result cache treats [t] and its views as the
    same database state. This is the unit the serving pool publishes:
    one snapshot = one engine + one view per worker domain. *)
val view : t -> t

(** {1 Telemetry access} *)

(** [obs t] is the engine's telemetry context (possibly disabled). *)
val obs : t -> Olar_obs.Obs.t

(** [with_obs t obs] is [t] observing through [obs] from now on; the
    lattice gauges are (re)set on the new context. *)
val with_obs : t -> Olar_obs.Obs.t -> t

(** {1 Introspection} *)

val lattice : t -> Lattice.t
val db_size : t -> int

(** [primary_threshold_count t] / [primary_threshold t] are the primary
    threshold as a count and as a fraction of the database. *)
val primary_threshold_count : t -> int

val primary_threshold : t -> float

(** [num_primary_itemsets t] excludes the root. *)
val num_primary_itemsets : t -> int

(** [stats t] is the lattice shape summary ({!Lattice.stats}): vertices,
    edges, estimated bytes, max fanout, depth. *)
val stats : t -> Lattice.Stats.t

(** [count_of_support t s] converts a fractional minimum support into the
    absolute count the engine uses: ⌈s·db⌉, at least 1. Raises
    [Invalid_argument] outside [0, 1]. *)
val count_of_support : t -> float -> int

(** {1 Online queries (Section 1.2)}

    Every query takes fractional [minsup] and raises
    {!Query.Below_primary_threshold} when it lies below the primary
    threshold, [Invalid_argument] on values outside [0, 1] (or a
    confidence outside (0, 1]). Work accounting goes through the
    engine's telemetry context; use {!Olar_core.Query} and friends
    directly for the raw kernels with explicit [?work] counters. *)

(** Query (1)/(2): itemsets ⊇ [containing] (default: all) at [minsup],
    with fractional supports, strongest first. *)
val itemsets : ?containing:Itemset.t -> t -> minsup:float -> (Itemset.t * float) list

(** Query (3): the number of such itemsets, without materialising. *)
val count_itemsets : ?containing:Itemset.t -> t -> minsup:float -> int

(** Query (1)/(2) for rules: the essential rules at ([minsup],
    [minconf]), optionally from itemsets ⊇ [containing] and under
    antecedent/consequent constraints. *)
val essential_rules :
  ?containing:Itemset.t ->
  ?constraints:Boundary.constraints ->
  t ->
  minsup:float ->
  minconf:float ->
  Rule.t list

(** All rules, redundant included. *)
val all_rules :
  ?containing:Itemset.t ->
  ?constraints:Boundary.constraints ->
  t ->
  minsup:float ->
  minconf:float ->
  Rule.t list

(** Rules with a one-item consequent. *)
val single_consequent_rules :
  ?containing:Itemset.t -> t -> minsup:float -> minconf:float -> Rule.t list

(** Redundancy measurement (Figures 11-12). *)
val redundancy :
  ?containing:Itemset.t -> t -> minsup:float -> minconf:float -> Rulegen.redundancy_report

(** FindBoundary (Figure 5): the boundary F(X, c) of primary itemset
    [target] at confidence [minconf] — the maximal-ancestor antecedents
    of the simple-redundancy-free rules from [target] — as
    (itemset, fractional support) pairs sorted by (cardinality,
    lexicographic), the kernel's canonical order. [[]] when [target] is
    not primary or no antecedent can satisfy [constraints]. *)
val boundary :
  ?constraints:Boundary.constraints ->
  t ->
  target:Itemset.t ->
  minconf:float ->
  (Itemset.t * float) list

(** Query (4): the fractional support at which exactly [k] itemsets
    containing [containing] exist; [None] when the lattice holds fewer
    than [k]. *)
val support_for_k_itemsets : t -> containing:Itemset.t -> k:int -> float option

(** Query (5): the fractional support at which [k] single-consequent
    rules at [minconf] involving [involving] exist. *)
val support_for_k_rules :
  t -> involving:Itemset.t -> minconf:float -> k:int -> float option

(** {1 Validated entry points}

    What a result cache ({!Olar_serve.Session}) computes on a miss.
    Arguments arrive validated — a support count from {!cut}, a
    confidence from {!Conf.of_float}, [k] through {!check_k} — and each
    runs its kernel under its kind's query span (named in brackets),
    as the fractional functions above do, so an executed query counts
    once in [olar_queries_total] however it was reached. *)

(** [cut ?minconf t minsup] checks [minsup] ({!count_of_support}), then
    [minconf] ({!Conf.of_float}), then the primary threshold
    ({!Query.Below_primary_threshold}) — the entry points' order — and
    is the support count the query runs at. *)
val cut : ?minconf:float -> t -> float -> int

(** [check_k] is {!Support_query.check_k}. *)
val check_k : rules:bool -> int -> unit

(** Query (1)/(2) as vertex ids in canonical order
    ({!Lattice.compare_strength}) [itemsets]. *)
val itemset_ids : t -> containing:Itemset.t -> minsup:int -> Lattice.vertex_id array

(** Query (3) [count_itemsets]. *)
val itemset_count : t -> containing:Itemset.t -> minsup:int -> int

(** [Single] ignores [constraints]. *)
type rule_kind = Essential | All | Single

(** The rule query of a kind [essential_rules | all_rules |
    single_consequent_rules]. *)
val rules :
  t ->
  rule_kind ->
  containing:Itemset.t ->
  constraints:Boundary.constraints ->
  minsup:int ->
  confidence:Conf.t ->
  Rule.t list

(** Query (4) as the full best-first answer [support_for_k_itemsets]. *)
val top_k : t -> containing:Itemset.t -> k:int -> Support_query.itemsets_answer

(** Query (5) as the full answer [support_for_k_rules]. *)
val top_k_rules :
  t -> involving:Itemset.t -> confidence:Conf.t -> k:int -> Support_query.rules_answer

(** {1 Maintenance} *)

(** [append t delta] folds a batch of new transactions into the engine in
    one pass over the batch (see {!Maintenance.append}): the returned
    engine serves old ∪ delta with exact counts for every previously
    primary itemset, and the itemset list reports the promotion frontier
    (new itemsets provably frequent from the batch alone — non-empty
    means a full re-preprocess would add vertices). The returned engine
    keeps [t]'s telemetry context but carries a fresh {!epoch}.
    @param domains parallel counting domains for the promotion-frontier
      pass (default 1). *)
val append : ?domains:int -> t -> Database.t -> t * Itemset.t list

(** {1 Persistence} *)

(** [save t path] / [load path] persist the underlying lattice via
    {!Serialize}. *)
val save : t -> string -> unit

val load : ?obs:Olar_obs.Obs.t -> string -> t
