(** The adjacency lattice (Section 2 of the paper).

    One vertex per {e primary itemset} — every itemset whose support
    reaches the primary threshold — labelled with its exact support
    count, plus a root vertex for the empty itemset labelled with the
    database size. A directed edge runs from v(X) to v(Y) exactly when Y
    extends X by one item ("X is a parent of Y"), so ancestors are
    subsets and descendants are supersets, and supports are non-increasing
    along every edge (Remark 2.2).

    {2 Storage layout}

    The structure is immutable after construction and stored flat, in
    CSR (compressed sparse row) form, because the graph traversals of
    the online queries are the system's hot path:

    - itemsets are packed into one int buffer ([item_buffer]) addressed
      by per-vertex offsets ([item_offsets]) — no per-vertex boxed
      arrays;
    - child and parent adjacency are each one edge buffer plus one
      offset array;
    - the itemset → vertex index is an open-addressed table probing the
      packed item ranges directly.

    Vertex ids are dense integers in [0, num_vertices) assigned in
    (cardinality, lexicographic) itemset order with the root always id
    0, so searches can use O(1) array visited-marks and id order doubles
    as the canonical output order. Children of a vertex are exposed in
    decreasing order of support — the invariant the paper's search
    algorithms exploit to stop scanning a child list at the first child
    below the support cut.

    {2 Read-only after construction}

    A [Lattice.t] is {b immutable once built}: no function in this
    interface mutates an existing lattice, and the implementation holds
    no mutable state (incremental maintenance, [Maintenance.append],
    builds a {e new} lattice that shares the arrays an append leaves
    unchanged, see {!bump}). This is a stated invariant, not an
    accident: the serving pool ({!module:Olar_serve} [Pool]) shares one
    lattice by reference across every worker domain with no locking,
    and each domain layers its own mutable state ({!Scratch},
    session caches) on top. The pool's non-blocking appends lean on it
    even harder: an append folds into a {e new} lattice published as an
    immutable snapshot by a single atomic pointer swap, while readers
    keep traversing the old one untouched — RCU with no read-side
    barrier, sound only because neither lattice ever changes under
    them. Any future change that adds interior mutability must also
    add synchronization there. Query kernels must route all per-query
    mutable state through {!Scratch}. *)

open Olar_data

type t

type vertex_id = int

(** [of_entries ~db_size ~threshold entries] builds the lattice over the
    given (itemset, support count) pairs — the primary itemsets, {e not}
    including the empty set. Requirements, checked, with
    [Invalid_argument] raised on violation:
    - [1 <= threshold], [threshold <= count <= db_size] for every entry;
    - no duplicate itemsets;
    - downward closure: every parent of an entry is an entry (the empty
      set is implicit) — this is what makes local parent checks
      sufficient for boundary maximality;
    - support monotonicity: an entry's count never exceeds a parent's.

    Complete level-wise mining output satisfies all four by construction. *)
val of_entries : db_size:int -> threshold:int -> (Itemset.t * int) array -> t

(** [of_packed ~db_size ~threshold ~item_off ~item_buf ~supports
    ~child_off ~child_buf] rebuilds a lattice from its serialized CSR
    representation. The input is untrusted: every structural invariant
    is revalidated — offsets monotone and spanning their buffers,
    itemsets strictly increasing and in strict (cardinality, lex) vertex
    order with the root at id 0, supports in range, downward closure and
    support monotonicity, and the supplied child adjacency equal to the
    one derived from the itemsets. Raises [Invalid_argument] on any
    violation. The arrays are adopted, not copied — the caller must not
    mutate them afterwards. *)
val of_packed :
  db_size:int ->
  threshold:int ->
  item_off:int array ->
  item_buf:int array ->
  supports:int array ->
  child_off:int array ->
  child_buf:int array ->
  t

(** [bump t ~db_size ~vertices ~counts] is [t] over a database grown to
    [db_size] transactions, with [counts.(k)] added to the support of
    vertex [vertices.(k)] (a repeated id gets the sum) and the root
    relabelled [db_size] — the lattice after an append
    ([Maintenance.append]). An append moves no vertex id, so only the
    supports and the order inside the child rows of the bumped
    vertices' parents change; those rows are re-sorted in place in a
    copied child buffer. Every other array (items, offsets, parent
    rows, index) is physically shared with [t], which is sound because
    lattices are immutable. Cost: one copy each of the support and
    child arrays, plus the bumped vertices' parent rows and the child
    rows re-sorted; nothing is re-indexed or re-derived.

    Returns the new lattice and the number of child rows re-sorted.
    Requirements, checked, with [Invalid_argument] raised on violation:
    [db_size >= db_size t]; equal-length arrays; non-root ids in range;
    counts [>= 0]; every bumped support [<= db_size]; and support
    monotonicity between each bumped vertex and its parents. *)
val bump :
  t -> db_size:int -> vertices:vertex_id array -> counts:int array -> t * int

(** [db_size t] is the number of transactions behind the supports. *)
val db_size : t -> int

(** [threshold t] is the primary threshold (absolute count). *)
val threshold : t -> int

(** [num_vertices t] includes the root. *)
val num_vertices : t -> int

(** [num_edges t] is the number of parent-child edges; by Theorem 2.1 it
    equals the sum of the cardinalities of the primary itemsets. *)
val num_edges : t -> int

(** [root t] is the vertex of the empty itemset (always id 0). *)
val root : t -> vertex_id

(** [find t x] is the vertex of itemset [x], if primary ([Some (root t)]
    for the empty set). *)
val find : t -> Itemset.t -> vertex_id option

(** [mem t x] is [find t x <> None]. *)
val mem : t -> Itemset.t -> bool

(** [itemset t v] is the itemset at [v], unpacked from the item buffer
    (allocates). Raises [Invalid_argument] on a bad id. *)
val itemset : t -> vertex_id -> Itemset.t

(** [support t v] is the support count label S at [v]. Raises
    [Invalid_argument] on a bad id. *)
val support : t -> vertex_id -> int

(** [support_of t x] is the support count of itemset [x] when primary. *)
val support_of : t -> Itemset.t -> int option

(** [cardinal t v] is the number of items at [v] (an O(1) offset
    difference). *)
val cardinal : t -> vertex_id -> int

(** [children t v] is a fresh array of the child vertices (supersets by
    one item) in decreasing order of support, ties broken
    lexicographically. Allocates a copy of the CSR row — traversal code
    should use {!child_offsets}/{!child_edges} or {!iter_children}
    instead. *)
val children : t -> vertex_id -> vertex_id array

(** [parents t v] is a fresh array of the parent vertices (subsets by
    one item) in increasing id order. Every non-root vertex has exactly
    [cardinal t v] parents. Allocates; see {!parent_offsets}. *)
val parents : t -> vertex_id -> vertex_id array

(** [iter_vertices f t] applies [f] to every vertex id, root first, then
    non-root vertices in (cardinality, lex) order. *)
val iter_vertices : (vertex_id -> unit) -> t -> unit

(** [entries t] is all non-root (itemset, support) pairs in
    (cardinality, lex) order — the inverse of {!of_entries} up to
    ordering. *)
val entries : t -> (Itemset.t * int) array

(** [fresh_marks t] is a cleared bitset sized for vertex ids — a
    standalone visited set for callers outside the query kernels (which
    use {!Scratch} epoch marks instead). *)
val fresh_marks : t -> Olar_util.Bitset.t

(** {2 Raw CSR access}

    The query kernels iterate these arrays directly so that a
    steady-state query performs no allocation. All returned arrays are
    owned by the lattice: never mutate them. *)

(** [child_offsets t] has length [num_vertices t + 1]; the children of
    [v] are [child_edges t].(i) for
    [child_offsets t.(v) <= i < child_offsets t.(v+1)], in decreasing
    support order (ties: ascending id = lexicographic). *)
val child_offsets : t -> int array

val child_edges : t -> int array

(** [parent_offsets t] / [parent_edges t]: same scheme for parent rows,
    each sorted by ascending id. *)
val parent_offsets : t -> int array

val parent_edges : t -> int array

(** [support_array t].(v) is [support t v] without the bounds check. *)
val support_array : t -> int array

(** [item_offsets t] / [item_buffer t]: the packed itemsets; the items
    of [v] are [item_buffer t].(i) for
    [item_offsets t.(v) <= i < item_offsets t.(v+1)], strictly
    increasing. *)
val item_offsets : t -> int array

val item_buffer : t -> int array

(** [iter_children t v f] applies [f] to each child of [v] in row order
    (decreasing support). Raises [Invalid_argument] on a bad id. *)
val iter_children : t -> vertex_id -> (vertex_id -> unit) -> unit

(** [iter_parents t v f] applies [f] to each parent of [v] in ascending
    id order. Raises [Invalid_argument] on a bad id. *)
val iter_parents : t -> vertex_id -> (vertex_id -> unit) -> unit

(** [compare_strength t a b] orders vertices by decreasing support, ties
    by ascending id. Because ids are assigned in (cardinality, lex)
    order this is exactly the paper's output order: strongest first,
    then smaller itemsets, then lexicographic.

    {b Canonical result order — a stated invariant.} Every query that
    returns a set of vertices returns it in this comparator's order,
    and the comparator is a {e total} order (no two distinct vertices
    compare equal, since ids differ). {!Query.find_itemsets} sorts a
    small answer with it; from {!Query.crossover} ids on it reaches
    the same order without comparisons, by a stable counting pass on
    support descending over the answer's marks swept in ascending id
    order. Two
    consequences downstream code relies on: (1) equal-support runs are
    internally ordered by ascending id, deterministically; (2) for a
    fixed start itemset the answer at a {e higher} support cut [s' >= s]
    is a literal {b prefix} of the answer at [s] — raising the cut
    filters the tail of the support-descending sequence and cannot
    reorder the survivors. The cross-query cache
    ({!Olar_serve.Session}) refines cached answers by binary-searching
    that prefix; changing this order is a breaking change pinned by a
    qcheck property in the test suite. *)
val compare_strength : t -> vertex_id -> vertex_id -> int

(** [vertex_has_subset t v x] is [Itemset.subset x (itemset t v)]
    without unpacking the vertex's itemset. *)
val vertex_has_subset : t -> vertex_id -> Itemset.t -> bool

(** [vertex_disjoint t v x] is [Itemset.disjoint (itemset t v) x]
    without unpacking. *)
val vertex_disjoint : t -> vertex_id -> Itemset.t -> bool

(** {2 Size accounting} *)

(** [estimated_bytes t] estimates the resident size of the lattice: the
    eight flat arrays (offsets, buffers, supports), the open-addressed
    index, and the record itself, in 64-bit heap words. Theorem 2.1
    makes the edge count the sum of primary itemset sizes, so the whole
    structure costs a small constant factor over the itemsets it stores
    — the paper's observation that the lattice is about as cheap as its
    contents. An estimate, not an exact accounting; kept in sync with
    [Olar_mining.Threshold.estimate_bytes]. *)
val estimated_bytes : t -> int

module Stats : sig
  type t = {
    vertices : int;  (** including the root *)
    edges : int;  (** = sum of primary itemset sizes (Theorem 2.1) *)
    bytes : int;  (** {!estimated_bytes} *)
    max_fanout : int;  (** largest child row *)
    depth : int;  (** cardinality of the largest primary itemset *)
  }

  val pp : Format.formatter -> t -> unit
end

(** [stats t] summarises the lattice shape for monitoring and the CLI
    [stats] subcommand. *)
val stats : t -> Stats.t
