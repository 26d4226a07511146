(** The level-wise (breadth-first) mining engine.

    One configurable skeleton implements both plain Apriori and DHP:
    pass k counts the level-k candidates in one database scan; the
    candidates for pass k+1 come from the apriori-gen join of the level-k
    survivors, optionally pre-filtered by a DHP hash table built during
    pass k, over a database optionally trimmed to items still alive in
    some frequent k-itemset.

    The engine also implements the two accelerations of Section 5 of the
    paper used by the primary-threshold search:
    - {b early termination} ([cap]): stop as soon as strictly more than
      [cap] itemsets have been found — enough to know the probed threshold
      is too low;
    - {b reuse} ([seed]): start from the completed levels of a previous
      run at a lower (or equal) threshold instead of re-counting them. *)

open Olar_data

(** DHP hash-filtering policy. [Hash_pass2 buckets] builds the pair-bucket
    table during pass 1 and filters the 2-candidates (the classic DHP
    deployment); [Hash_all buckets] builds a table for every next level
    (expensive for long transactions: pass k enumerates all
    (k+1)-combinations of each transaction). *)
type hash_policy =
  | No_hash
  | Hash_pass2 of int
  | Hash_all of int

(** Which batched counting structure pass k uses (identical counts; the
    trie is usually faster, see the `ablate-counting` bench). *)
type counting =
  | Use_trie
  | Use_hashtree

type config = {
  trim : bool;
      (** after pass k, drop items in no frequent k-itemset and
          transactions left with fewer than k+1 items *)
  hash : hash_policy;
  counting : counting;
  domains : int;
      (** parallel counting domains for the level passes (OCaml 5
          multicore); 1 = sequential. Results are identical for any
          value: each domain counts a transaction slice into its own
          structure and the per-candidate counts are summed. *)
}

(** [count config ~k txns candidates] is pass [k]'s counting step on
    its own, with no hash table: the (candidate, count) pairs of the
    lex-sorted, duplicate-free [k]-itemsets [candidates] over [txns], in
    candidate order. It counts with [config.counting] (under [Use_trie],
    level 2 uses a {!Pair_triangle} when one fits) across
    [config.domains] slices, exactly as {!mine} does; [config.trim] and
    [config.hash] are not read. *)
val count :
  config -> k:int -> Itemset.t array -> Itemset.t array -> (Itemset.t * int) array

(** [mine config db ~minsup] mines all itemsets with support count >=
    [minsup].

    @param obs telemetry context; when enabled and tracing, each level
      pass is wrapped in a [mine.pass] span carrying the level number and
      the count of itemsets that survived it, with child spans
      [mine.candidates] (generation and hash filter, levels >= 2),
      [mine.count] (the database scan) and [mine.trim] (the trim for the
      next pass, when [config.trim]). Defaults to disabled.
    @param stats work counters to accumulate into.
    @param cap abort (complete = false) once more than [cap] itemsets
      have been found; must be >= 1.
    @param max_level stop after this cardinality (complete = false if
      candidates remained); must be >= 1.
    @param seed a previous result over the {e same database} at a
      threshold <= [minsup]; its completed levels are reused without
      counting. Raises [Invalid_argument] on a threshold above [minsup]
      or a mismatched database size.
    Raises [Invalid_argument] if [minsup < 1]. *)
val mine :
  ?obs:Olar_obs.Obs.t ->
  ?stats:Stats.t ->
  ?cap:int ->
  ?max_level:int ->
  ?seed:Frequent.t ->
  config ->
  Database.t ->
  minsup:int ->
  Frequent.t
