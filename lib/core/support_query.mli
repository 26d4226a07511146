(** Reverse queries — algorithm [FindSupport] (Figure 3, Theorem 3.1).

    "At what level of minsupport do exactly k itemsets containing Z
    exist?" A best-first search from v(Z) pops the highest-support vertex
    on the frontier; because descendants can only be weaker (Remark 2.2),
    after k pops the output holds the k itemsets containing Z of highest
    support, and the support of the last pop is the answer.

    Section 3.2's variant answers the same question for single-consequent
    rules at a fixed confidence level. *)

open Olar_data

type itemsets_answer = {
  itemsets : (Itemset.t * int) list;
      (** up to k itemsets containing Z, by decreasing support *)
  support_level : int option;
      (** the minsupport at which exactly k itemsets containing Z exist —
          the k-th highest support; [None] when fewer than k are
          represented in the lattice *)
}

(** [check_k ~rules k] is the argument check both searches start with:
    [Invalid_argument "Support_query.find_support: k"] (or
    [..._for_rules: k] when [rules]) when [k < 1]. *)
val check_k : rules:bool -> int -> unit

(** [find_support lattice ~containing ~k] answers query type (4) of
    Section 1.2. The itemset Z = [containing] counts as its own first
    answer when non-empty (it contains itself); the empty itemset is
    never reported. When Z is not primary the lattice holds no itemset
    containing it: the answer is empty. Raises [Invalid_argument] when
    [k < 1].

    @param work incremented per vertex pop and per child inspection.
    @param scratch reusable search state (see {!Scratch}). *)
val find_support :
  ?work:Olar_util.Timer.Counter.t ->
  ?scratch:Scratch.t ->
  Lattice.t ->
  containing:Itemset.t ->
  k:int ->
  itemsets_answer

(** [single_consequent_rules lattice ~confidence v] is the rules
    (X \ {i}) ⇒ {i} of the itemset X at vertex [v] whose confidence
    S(X)/S(X \ {i}) clears [confidence], listed by increasing dropped
    item; empty when |X| < 2. Antecedent supports are read off the
    parent CSR row — no index lookups. *)
val single_consequent_rules :
  Lattice.t -> confidence:Conf.t -> Lattice.vertex_id -> Rule.t list

type rules_answer = {
  rules : Rule.t list;
      (** the single-consequent rules discovered, in decreasing order of
          the generating itemset's support; all rules of the generating
          itemset popped last are included, so the list may hold slightly
          more than k rules *)
  rule_support_level : int option;
      (** the minsupport at which at least k single-consequent rules at
          the given confidence exist; [None] when the lattice cannot
          yield k such rules *)
}

(** [find_support_for_rules lattice ~involving ~confidence ~k] answers
    query type (5): pops itemsets X ⊇ [involving] best-first and counts
    the rules (X \ {i}) ⇒ {i} whose confidence S(X)/S(X \ {i}) clears
    [confidence], stopping once k rules have been found. Raises
    [Invalid_argument] when [k < 1]. *)
val find_support_for_rules :
  ?work:Olar_util.Timer.Counter.t ->
  ?scratch:Scratch.t ->
  Lattice.t ->
  involving:Itemset.t ->
  confidence:Conf.t ->
  k:int ->
  rules_answer
