(** Level-2 counting through a triangular pair array.

    The candidates' distinct items are ranked 0 .. r-1 in increasing
    order, and every ranked pair (a < b) owns one cell of a triangular
    int array of r(r-1)/2 cells. Counting a transaction increments the
    cell of every pair of its ranked items: no lookup and no allocation.
    The candidates' counts are then read off their cells. Counts equal
    {!Trie}'s at depth 2 for the same candidates. *)

open Olar_data

type t

(** [create candidates] is a zeroed triangle for [candidates], which
    must be lex-sorted, duplicate-free 2-itemsets (as candidate
    generation emits them). It is [None] when the triangle would hold
    more than [max 65536 (16 * Array.length candidates)] cells: a sparse
    candidate set over many items is cheaper to count in a {!Trie}.
    Raises [Invalid_argument] on a candidate of another cardinality. *)
val create : Itemset.t array -> t option

(** [count_transaction t txn] increments every candidate that is a
    subset of [txn]. *)
val count_transaction : t -> Itemset.t -> unit

(** [to_sorted_array t] is the (candidate, count) pairs in candidate
    order, which is {!Olar_data.Itemset.compare_lex} order. *)
val to_sorted_array : t -> (Itemset.t * int) array
