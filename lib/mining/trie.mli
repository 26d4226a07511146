(** Prefix trie for batched candidate counting.

    The classic Apriori counting structure: candidates of a fixed
    cardinality [depth] are inserted, then each transaction is streamed
    through {!count_transaction}, which increments the counter of every
    inserted candidate that is a subset of the transaction by a pruned
    descent (a node is only entered through items the transaction
    contains). This makes one database pass count all candidates of a
    level at once.

    {b Frozen layout.} Inserts only collect the candidates. The first
    {!count_transaction}, {!count} or {!to_sorted_array} freezes them
    into a flat, breadth-first (CSR) trie built from the lex-sorted
    distinct candidates: a [row_start] array gives each internal node
    its row of edges, a [child_item] array holds each edge's item with
    every row sorted by item, and a [counts] array holds one counter per
    candidate. Edges are numbered in the same breadth-first order as
    nodes, so edge [e] leads to node [e + 1] and the child of an edge
    needs no array of its own. Nothing is hashed and nothing is
    allocated per transaction.

    {b Cost per transaction.} At each node reached, the node's row is
    matched against the transaction's still-usable suffix: by a merge
    walk, or, when the row is more than 8 times longer than the suffix
    (typically the root), by a binary search per suffix item. A
    transaction of [n] items thus costs O(min(row + n, n log row)) per
    node reached, and only nodes on paths of its own items are reached.

    {b Insert after counting.} Freezing is final: {!insert} after the
    first {!count_transaction}, {!count} or {!to_sorted_array} raises
    [Invalid_argument "Trie.insert: after counting"]. Build a new trie
    to count another candidate set. *)

open Olar_data

type t

(** [create ~depth] is an empty trie for candidates of cardinality
    [depth] >= 1. Raises [Invalid_argument] otherwise. *)
val create : depth:int -> t

(** [depth t] is the candidate cardinality. *)
val depth : t -> int

(** [size t] is the number of candidates inserted. *)
val size : t -> int

(** [insert t x] registers candidate [x] with a zero count. Duplicate
    inserts are idempotent. Raises [Invalid_argument] if
    [Itemset.cardinal x <> depth t], or once [t] is frozen (see above).
    Inserting in lex order is cheapest: anything else is sorted once,
    when [t] freezes. *)
val insert : t -> Itemset.t -> unit

(** [count_transaction t txn] increments every registered candidate that
    is a subset of [txn]. *)
val count_transaction : t -> Itemset.t -> unit

(** [count t x] is the current count of candidate [x], or [None] if it was
    never inserted. *)
val count : t -> Itemset.t -> int option

(** [to_sorted_array t] is all (candidate, count) pairs sorted by
    {!Olar_data.Itemset.compare_lex}. *)
val to_sorted_array : t -> (Itemset.t * int) array
