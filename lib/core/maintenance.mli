(** Incremental maintenance of a preprocessed lattice.

    Transaction data grows; re-running the whole preprocessing for every
    batch of new sales defeats the preprocess-once economics. In the
    spirit of FUP (Cheung et al., ICDE 1996), {!append} refreshes a
    lattice against a batch of {e new} transactions in a single pass
    over the batch only:

    - the support count of every existing primary itemset is updated
      exactly, by one walk per delta transaction through the lattice
      vertices that transaction contains (the FindItemsets search
      restricted to its items). An append moves no vertex id, so the
      new lattice shares its item, parent and index arrays with the old
      one and re-sorts only the child rows whose members gained support
      ({!Lattice.bump}): the cost follows the delta, not the lattice;
    - itemsets that were {e not} primary before cannot be discovered
      without touching the old data; {!append} therefore reports the
      {e promotion frontier} (itemsets frequent within the delta alone,
      see {!update}) so the caller knows whether a full {!rebuild} is
      worth scheduling.

    The updated lattice keeps the same {e absolute} count threshold; as
    a fraction of the grown database it is lower, so previously-served
    query ranges remain served. Every itemset that was primary before
    the append keeps an exact count over old ∪ delta.

    {2 Exactness floor}

    An itemset that was not primary had fewer than [threshold]
    occurrences, so after appends totalling [r] rows it has fewer than
    [threshold + r]. Answers at minsup [>= threshold + r] (itemsets,
    counts and rules) are therefore exact: every itemset that frequent
    is in the lattice with its true count, as are all its subsets.
    Below that floor an itemset whose count crossed the threshold
    through a delta is missing from the lattice and from the answers;
    only {!rebuild} restores it. *)

open Olar_data

type update = {
  lattice : Lattice.t;  (** refreshed lattice over old ∪ delta *)
  delta_size : int;
  promoted_candidates : Itemset.t list;
      (** minimal absent itemsets (every parent primary) whose count
          {e within the delta alone} reaches the threshold — certainly
          frequent now, but absent from the lattice because their
          old-data counts were never stored; non-empty means {!rebuild}
          would add vertices. Empty whenever the delta has fewer rows
          than the threshold. *)
  vertices_bumped : int;
      (** non-root vertices contained in at least one delta row *)
  rows_resorted : int;  (** child rows re-sorted by {!Lattice.bump} *)
}

(** [append lattice delta] folds the batch into the lattice. The delta
    must use the same item universe semantics (item ids beyond the old
    universe are fine — they are new products — but they can only enter
    the lattice via {!rebuild}).
    @param domains parallel counting domains for the promotion-frontier
      mining pass over the delta (default 1 = sequential). *)
val append : ?domains:int -> Lattice.t -> Database.t -> update

(** [rebuild ~threshold ~old_db ~delta ()] re-mines old ∪ delta at the
    count [threshold] (normally the replaced lattice's) and returns the
    exact new lattice — the slow path {!append} avoids. *)
val rebuild :
  ?stats:Olar_mining.Stats.t ->
  ?domains:int ->
  threshold:int ->
  old_db:Database.t ->
  delta:Database.t ->
  unit ->
  Lattice.t
