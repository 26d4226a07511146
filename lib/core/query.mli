(** Online itemset generation — algorithm [FindItemsets] (Figure 2).

    Given a starting itemset I and a minimum support s, find every primary
    itemset J ⊇ I with S(J) >= s by a forward graph search from v(I):
    only children whose support clears s are expanded, and since child
    lists are sorted by decreasing support the scan of each list stops at
    the first failure. The work — and hence the response time — is
    proportional to the size of the output, not to the number of itemsets
    prestored (Problem 3.1). *)

open Olar_data

(** Raised when a query asks for a support below the primary threshold:
    itemsets in that range were never prestored, so the lattice cannot
    answer (Section 1.1 of the paper). *)
exception Below_primary_threshold of { requested : int; primary : int }

(** [check_minsup lattice s] raises {!Below_primary_threshold} when
    [s < Lattice.threshold lattice], and [Invalid_argument] when
    [s < 1]. *)
val check_minsup : Lattice.t -> int -> unit

(** [find_itemsets lattice ~containing ~minsup] is the vertices of all
    itemsets J ⊇ [containing] with support count >= [minsup], sorted by
    decreasing support (ties: smaller cardinality first, then
    lexicographic). The starting itemset itself is included when it
    qualifies and [include_start] is true (default) — the empty itemset is
    never included. Raises {!Below_primary_threshold} as per
    {!check_minsup}.

    {b Canonical order invariant.} The result is sorted by
    {!Lattice.compare_strength} (support desc, ties ascending id) — a
    total order, so the output for a given (lattice, [containing],
    [minsup], [include_start]) is unique. Because the result at
    [minsup = s] is exactly the supports-[>= s] filter of a fixed
    support-descending sequence, the result at any [s' >= s] is a
    {e prefix} of the result at [s]. {!Olar_serve.Session} depends on
    both properties; a qcheck test pins them.

    {b Two ways to that order.} The walk marks every vertex of the
    answer in the scratch. An answer smaller than {!crossover} is put
    in order by a comparison sort with {!Lattice.compare_strength}. A
    larger one is read back from the marks in ascending id order and
    placed by one stable counting pass keyed on support descending
    over the answer's support range [[minsup, max support]]:
    O(num_vertices + support range) instead of O(n log n) comparisons,
    with an identical result.

    When [containing] is not primary the result is empty: every superset
    has support below the primary threshold <= [minsup].

    @param work incremented once per vertex expanded and once per child
      link inspected — the paper's output-sensitivity metric. The
      ordering adds nothing to it.
    @param scratch reusable search state (see {!Scratch}); when omitted
      a fresh scratch is allocated for this query. *)
val find_itemsets :
  ?work:Olar_util.Timer.Counter.t ->
  ?scratch:Scratch.t ->
  ?include_start:bool ->
  Lattice.t ->
  containing:Itemset.t ->
  minsup:int ->
  Lattice.vertex_id array

(** [crossover lattice] is the smallest answer size that
    {!find_itemsets} orders by the counting pass rather than the
    comparison sort: the least [n] with [8·n·floor(log2 n) >=
    Lattice.num_vertices lattice], and at least 2. It scales with the
    lattice, so small lattices exercise both sides. *)
val crossover : Lattice.t -> int

(** [count_itemsets lattice ~containing ~minsup] is
    [Array.length (find_itemsets ...)] without building the array — query
    type (3) of Section 1.2. *)
val count_itemsets :
  ?work:Olar_util.Timer.Counter.t ->
  ?scratch:Scratch.t ->
  ?include_start:bool ->
  Lattice.t ->
  containing:Itemset.t ->
  minsup:int ->
  int

(** [to_entries lattice ids] resolves vertices to (itemset, support)
    pairs, preserving order. *)
val to_entries : Lattice.t -> Lattice.vertex_id array -> (Itemset.t * int) list
