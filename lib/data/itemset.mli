(** Itemsets: immutable sets of items.

    The central value type of the system. An itemset is represented as a
    strictly increasing array of item ids, which gives O(|X|+|Y|) set
    algebra by merging, cache-friendly iteration, and a total order
    suitable for use as a map/hash key. All functions treat values as
    immutable; none mutates its arguments. *)

type t

(** {1 Construction} *)

(** The empty itemset (the root of the adjacency lattice). *)
val empty : t

(** [singleton i] is the one-item set {i}. Raises [Invalid_argument] for a
    negative id. *)
val singleton : Item.t -> t

(** [of_list l] sorts and deduplicates [l]. Raises [Invalid_argument] on a
    negative id. *)
val of_list : Item.t list -> t

(** [of_array a] sorts and deduplicates a copy of [a]. Raises
    [Invalid_argument] on a negative id. *)
val of_array : Item.t array -> t

(** [of_sorted_array_unchecked a] adopts [a] without copying. The caller
    promises [a] is strictly increasing and non-negative, and will never
    mutate it; violating this breaks every operation. Used on hot paths
    (candidate generation) where the invariant holds by construction. *)
val of_sorted_array_unchecked : Item.t array -> t

(** {1 Observation} *)

(** [cardinal x] is the number of items, |X|. *)
val cardinal : t -> int

(** [is_empty x] is [cardinal x = 0]. *)
val is_empty : t -> bool

(** [mem i x] tests membership by binary search, O(log |X|). *)
val mem : Item.t -> t -> bool

(** [nth x k] is the [k]-th smallest item. Raises [Invalid_argument] when
    out of bounds. *)
val nth : t -> int -> Item.t

(** [min_item x] / [max_item x] are the extreme items. Raise
    [Invalid_argument] on the empty set. *)
val min_item : t -> Item.t

val max_item : t -> Item.t

(** [to_list x] is the items in increasing order. *)
val to_list : t -> Item.t list

(** [to_array x] is a fresh array of the items in increasing order. *)
val to_array : t -> Item.t array

(** [as_array x] is the items in increasing order as the representation
    array itself, not a copy: O(1). The caller must never mutate it.
    Used by the mining kernels (trimming, candidate counting), which read
    every transaction of every pass and must not copy them. *)
val as_array : t -> Item.t array

(** [iter f x] applies [f] to each item in increasing order. *)
val iter : (Item.t -> unit) -> t -> unit

(** [fold f x acc] folds over items in increasing order. *)
val fold : (Item.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc

(** {1 Algebra} *)

(** [add i x] is X ∪ {i}. *)
val add : Item.t -> t -> t

(** [remove i x] is X \ {i} ([x] itself when [i] is absent). *)
val remove : Item.t -> t -> t

(** [union x y] is X ∪ Y. *)
val union : t -> t -> t

(** [inter x y] is X ∩ Y. *)
val inter : t -> t -> t

(** [diff x y] is X \ Y. *)
val diff : t -> t -> t

(** [subset x y] is true iff X ⊆ Y. *)
val subset : t -> t -> bool

(** [strict_subset x y] is true iff X ⊂ Y. *)
val strict_subset : t -> t -> bool

(** [disjoint x y] is true iff X ∩ Y = ∅. *)
val disjoint : t -> t -> bool

(** {1 Lattice neighbourhood} *)

(** [parents x] is the list of (dropped item, X \ {item}) pairs — the
    parents of X in the adjacency lattice (Section 2 of the paper: a
    parent is obtained by removing one item, so X has exactly |X| of
    them). Listed in increasing order of the dropped item. *)
val parents : t -> (Item.t * t) list

(** [subsets x] is all 2^|X| subsets of X (including ∅ and X itself), in
    no specified order. Exponential — intended for small sets in tests and
    the naive baseline. Raises [Invalid_argument] when |X| > 20. *)
val subsets : t -> t list

(** [proper_nonempty_subsets x] is [subsets x] without ∅ and X. Same
    bound. *)
val proper_nonempty_subsets : t -> t list

(** {1 Comparison, hashing, formatting} *)

(** Total order: by cardinality, then lexicographically — so all k-itemsets
    sort before (k+1)-itemsets, matching level-wise mining output order. *)
val compare : t -> t -> int

(** Lexicographic order on the sorted item sequences (ignores
    cardinality), the order used to list candidates within a level. *)
val compare_lex : t -> t -> int

val equal : t -> t -> bool

(** [hash x] is a FNV-1a style hash of the item sequence. *)
val hash : t -> int

(** [pp fmt x] prints as "{1,5,9}". *)
val pp : Format.formatter -> t -> unit

(** [pp_named vocab fmt x] prints item names, e.g. "{bread,milk}". *)
val pp_named : Item.Vocab.t -> Format.formatter -> t -> unit

(** [to_string x] is [pp] rendered to a string. *)
val to_string : t -> string

(** Hashtbl over itemsets. *)
module Table : Hashtbl.S with type key = t

(** Ordered map over itemsets (using {!val:compare}). *)
module Map : Map.S with type key = t

(** Ordered set of itemsets (using {!val:compare}). *)
module Set : Set.S with type elt = t
