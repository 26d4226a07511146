open Olar_data

type vertex_id = int

(* Flat CSR layout. The items of vertex v occupy
   item_buf.[item_off.(v) .. item_off.(v+1)), strictly increasing; the
   adjacency rows use the same offset scheme. By Theorem 2.1 the edge
   count equals the total item count, so item_buf, child_buf and
   parent_buf all have the same length. Vertex ids follow the
   (cardinality, lex) order of Itemset.compare, root = 0. *)
type t = {
  db_size : int;
  threshold : int;
  item_off : int array; (* n + 1 *)
  item_buf : int array; (* e *)
  supports : int array; (* n *)
  child_off : int array; (* n + 1 *)
  child_buf : int array; (* rows: decreasing support, ties ascending id *)
  parent_off : int array; (* n + 1 *)
  parent_buf : int array; (* rows: ascending id *)
  index : int array; (* open addressing over packed itemsets; -1 = empty *)
  index_mask : int;
}

(* ------------------------------------------------------------------ *)
(* Index: open-addressed table with linear probing, power-of-two
   capacity >= 2n so probes terminate fast. Hashing replicates
   Itemset.hash over the packed range, so find can hash an Itemset.t
   key and compare against ranges without unpacking. *)

let index_capacity n =
  let target = max 8 (2 * n) in
  let c = ref 8 in
  while !c < target do
    c := !c lsl 1
  done;
  !c

let hash_range buf lo hi =
  let h = ref 0x3f29ce484222325 in
  for k = lo to hi - 1 do
    h := !h lxor buf.(k);
    h := !h * 0x100000001b3
  done;
  !h land max_int

let build_index item_off item_buf n =
  let cap = index_capacity n in
  let mask = cap - 1 in
  let index = Array.make cap (-1) in
  for v = 0 to n - 1 do
    let h = hash_range item_buf item_off.(v) item_off.(v + 1) in
    let slot = ref (h land mask) in
    while index.(!slot) >= 0 do
      slot := (!slot + 1) land mask
    done;
    index.(!slot) <- v
  done;
  (index, mask)

(* ------------------------------------------------------------------ *)
(* Adjacency derivation, shared by of_entries and of_packed. Parents
   are resolved by index lookup of "this vertex minus one item"; the
   child rows are the transpose. Raises Invalid_argument (ctx ^ reason)
   on closure or monotonicity violations. *)

(* Does the itemset of [v] (range starting at plo) equal
   buf.[lo..hi) minus the element at position [skip]? *)
let equal_minus buf plo lo hi skip =
  let ok = ref true in
  let p = ref plo in
  let k = ref lo in
  while !ok && !k < hi do
    if !k <> skip then begin
      if buf.(!p) <> buf.(!k) then ok := false;
      incr p
    end;
    incr k
  done;
  !ok

let find_parent_packed item_off item_buf index mask ~lo ~hi ~skip =
  let h = ref 0x3f29ce484222325 in
  for k = lo to hi - 1 do
    if k <> skip then begin
      h := !h lxor item_buf.(k);
      h := !h * 0x100000001b3
    end
  done;
  let h = !h land max_int in
  let card = hi - lo - 1 in
  let result = ref (-2) in
  let slot = ref (h land mask) in
  while !result = -2 do
    let v = index.(!slot) in
    if v < 0 then result := -1
    else begin
      let plo = item_off.(v) in
      if item_off.(v + 1) - plo = card && equal_minus item_buf plo lo hi skip
      then result := v
      else slot := (!slot + 1) land mask
    end
  done;
  !result

let build_adjacency ~ctx item_off item_buf supports index mask =
  let n = Array.length supports in
  let e = Array.length item_buf in
  let parent_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    parent_off.(v + 1) <- parent_off.(v) + (item_off.(v + 1) - item_off.(v))
  done;
  let parent_buf = Array.make e 0 in
  let child_count = Array.make n 0 in
  for v = 1 to n - 1 do
    let lo = item_off.(v) and hi = item_off.(v + 1) in
    let cursor = ref parent_off.(v) in
    (* Dropping the largest item first yields the lexicographically
       smallest parent, so the row comes out in ascending id order. *)
    for skip = hi - 1 downto lo do
      let p = find_parent_packed item_off item_buf index mask ~lo ~hi ~skip in
      if p < 0 then invalid_arg (ctx ^ "not downward closed");
      if supports.(p) < supports.(v) then
        invalid_arg (ctx ^ "support not monotone");
      parent_buf.(!cursor) <- p;
      incr cursor;
      child_count.(p) <- child_count.(p) + 1
    done
  done;
  let child_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    child_off.(v + 1) <- child_off.(v) + child_count.(v)
  done;
  let child_buf = Array.make e 0 in
  let cursor = Array.copy child_off in
  for v = 1 to n - 1 do
    for k = parent_off.(v) to parent_off.(v + 1) - 1 do
      let p = parent_buf.(k) in
      child_buf.(cursor.(p)) <- v;
      cursor.(p) <- cursor.(p) + 1
    done
  done;
  (* Child rows: decreasing support, ties by ascending id — within a
     row all children share one cardinality, so id order is lex
     order. *)
  let cmp a b =
    let c = Int.compare supports.(b) supports.(a) in
    if c <> 0 then c else Int.compare a b
  in
  for v = 0 to n - 1 do
    let lo = child_off.(v) in
    let len = child_off.(v + 1) - lo in
    if len > 1 then begin
      let row = Array.sub child_buf lo len in
      Array.sort cmp row;
      Array.blit row 0 child_buf lo len
    end
  done;
  (child_off, child_buf, parent_off, parent_buf)

(* ------------------------------------------------------------------ *)
(* Construction from mining output. *)

let of_entries ~db_size ~threshold entries =
  if db_size < 0 then invalid_arg "Lattice.of_entries: db_size";
  if threshold < 1 then invalid_arg "Lattice.of_entries: threshold";
  let entries = Array.copy entries in
  Array.sort (fun (x, _) (y, _) -> Itemset.compare x y) entries;
  let n = Array.length entries + 1 in
  let supports = Array.make n db_size in
  let item_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun k (x, c) ->
      let v = k + 1 in
      if Itemset.is_empty x then
        invalid_arg "Lattice.of_entries: explicit empty itemset";
      if c < threshold || c > db_size then
        invalid_arg "Lattice.of_entries: support out of range";
      if k > 0 && Itemset.equal x (fst entries.(k - 1)) then
        invalid_arg "Lattice.of_entries: duplicate itemset";
      supports.(v) <- c;
      item_off.(v + 1) <- item_off.(v) + Itemset.cardinal x)
    entries;
  let item_buf = Array.make item_off.(n) 0 in
  Array.iteri
    (fun k (x, _) ->
      let pos = ref item_off.(k + 1) in
      Itemset.iter
        (fun i ->
          item_buf.(!pos) <- i;
          incr pos)
        x)
    entries;
  let index, index_mask = build_index item_off item_buf n in
  let child_off, child_buf, parent_off, parent_buf =
    build_adjacency ~ctx:"Lattice.of_entries: " item_off item_buf supports
      index index_mask
  in
  {
    db_size;
    threshold;
    item_off;
    item_buf;
    supports;
    child_off;
    child_buf;
    parent_off;
    parent_buf;
    index;
    index_mask;
  }

(* ------------------------------------------------------------------ *)
(* Construction from a serialized CSR image (untrusted). *)

(* (cardinality, lex) comparison of two packed vertices. *)
let compare_packed item_off item_buf a b =
  let alo = item_off.(a) and ahi = item_off.(a + 1) in
  let blo = item_off.(b) and bhi = item_off.(b + 1) in
  let c = Int.compare (ahi - alo) (bhi - blo) in
  if c <> 0 then c
  else begin
    let len = ahi - alo in
    let k = ref 0 in
    let r = ref 0 in
    while !r = 0 && !k < len do
      r := Int.compare item_buf.(alo + !k) item_buf.(blo + !k);
      incr k
    done;
    !r
  end

let of_packed ~db_size ~threshold ~item_off ~item_buf ~supports ~child_off
    ~child_buf =
  let fail msg = invalid_arg ("Lattice.of_packed: " ^ msg) in
  if db_size < 0 then fail "db_size";
  if threshold < 1 then fail "threshold";
  let n = Array.length supports in
  if n < 1 then fail "no root vertex";
  if Array.length item_off <> n + 1 then fail "item_off length";
  if Array.length child_off <> n + 1 then fail "child_off length";
  let e = Array.length item_buf in
  if Array.length child_buf <> e then
    fail "edge count must equal item count (Theorem 2.1)";
  if item_off.(0) <> 0 || child_off.(0) <> 0 then fail "offsets must start at 0";
  for v = 0 to n - 1 do
    if item_off.(v + 1) < item_off.(v) then fail "item_off not monotone";
    if child_off.(v + 1) < child_off.(v) then fail "child_off not monotone"
  done;
  if item_off.(n) <> e then fail "item_off does not span item_buf";
  if child_off.(n) <> e then fail "child_off does not span child_buf";
  if item_off.(1) <> 0 then fail "vertex 0 must be the empty itemset";
  if supports.(0) <> db_size then fail "root support must equal db_size";
  for v = 1 to n - 1 do
    let lo = item_off.(v) and hi = item_off.(v + 1) in
    for k = lo to hi - 1 do
      if item_buf.(k) < 0 then fail "negative item";
      if k > lo && item_buf.(k) <= item_buf.(k - 1) then
        fail "itemset not strictly increasing"
    done;
    if supports.(v) < threshold || supports.(v) > db_size then
      fail "support out of range";
    if v > 1 && compare_packed item_off item_buf (v - 1) v >= 0 then
      fail "vertices not in (cardinality, lex) order"
  done;
  let index, index_mask = build_index item_off item_buf n in
  let child_off', child_buf', parent_off, parent_buf =
    build_adjacency ~ctx:"Lattice.of_packed: " item_off item_buf supports index
      index_mask
  in
  if child_off <> child_off' || child_buf <> child_buf' then
    fail "child adjacency disagrees with the itemsets";
  {
    db_size;
    threshold;
    item_off;
    item_buf;
    supports;
    child_off = child_off';
    child_buf = child_buf';
    parent_off;
    parent_buf;
    index;
    index_mask;
  }

(* ------------------------------------------------------------------ *)
(* Construction from an older lattice by support bumps (appends). *)

(* Insertion sort of buf.[lo..hi) into decreasing support, ties by
   ascending id. A row whose members only gained support is nearly
   sorted: each bumped child moves toward the front past the children
   it overtook, so the cost is the row length plus those moves. *)
let sort_row supports buf lo hi =
  for i = lo + 1 to hi - 1 do
    let c = buf.(i) in
    let s = supports.(c) in
    let j = ref (i - 1) in
    while
      !j >= lo
      &&
      let d = buf.(!j) in
      supports.(d) < s || (supports.(d) = s && d > c)
    do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- c
  done

let bump t ~db_size ~vertices ~counts =
  let fail msg = invalid_arg ("Lattice.bump: " ^ msg) in
  let n = Array.length t.supports in
  if db_size < t.db_size then fail "db_size";
  if Array.length counts <> Array.length vertices then
    fail "vertices and counts differ in length";
  let supports = Array.copy t.supports in
  supports.(0) <- db_size;
  Array.iteri
    (fun k v ->
      if v < 1 || v >= n then fail "vertex id";
      if counts.(k) < 0 then fail "negative count";
      supports.(v) <- supports.(v) + counts.(k))
    vertices;
  (* Supports only grew, so the threshold still holds everywhere and a
     vertex outside [vertices] cannot break monotonicity; only the
     bumped vertices need checking, against their (final) parents. The
     rows to re-sort are the child rows of those parents. *)
  let child_buf = Array.copy t.child_buf in
  let resorted = Olar_util.Bitset.create n and rows = ref 0 in
  Array.iter
    (fun v ->
      if supports.(v) > db_size then fail "support out of range";
      for k = t.parent_off.(v) to t.parent_off.(v + 1) - 1 do
        let p = t.parent_buf.(k) in
        if supports.(p) < supports.(v) then fail "support not monotone";
        if not (Olar_util.Bitset.mem resorted p) then begin
          Olar_util.Bitset.add resorted p;
          incr rows;
          sort_row supports child_buf t.child_off.(p) t.child_off.(p + 1)
        end
      done)
    vertices;
  ({ t with db_size; supports; child_buf }, !rows)

(* ------------------------------------------------------------------ *)
(* Observation. *)

let db_size t = t.db_size
let threshold t = t.threshold
let num_vertices t = Array.length t.supports
let num_edges t = Array.length t.child_buf
let root _ = 0

let range_equals buf lo x card =
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < card do
    if buf.(lo + !k) <> Itemset.nth x !k then ok := false else incr k
  done;
  !ok

let find t x =
  let card = Itemset.cardinal x in
  let slot = ref (Itemset.hash x land t.index_mask) in
  let result = ref (-2) in
  while !result = -2 do
    let v = t.index.(!slot) in
    if v < 0 then result := -1
    else begin
      let lo = t.item_off.(v) in
      if t.item_off.(v + 1) - lo = card && range_equals t.item_buf lo x card
      then result := v
      else slot := (!slot + 1) land t.index_mask
    end
  done;
  if !result < 0 then None else Some !result

let mem t x = find t x <> None

let check_id t v name = if v < 0 || v >= num_vertices t then invalid_arg name

let itemset t v =
  check_id t v "Lattice.itemset";
  let lo = t.item_off.(v) in
  Itemset.of_sorted_array_unchecked
    (Array.sub t.item_buf lo (t.item_off.(v + 1) - lo))

let support t v =
  check_id t v "Lattice.support";
  t.supports.(v)

let support_of t x = Option.map (fun v -> t.supports.(v)) (find t x)

let cardinal t v =
  check_id t v "Lattice.cardinal";
  t.item_off.(v + 1) - t.item_off.(v)

let children t v =
  check_id t v "Lattice.children";
  let lo = t.child_off.(v) in
  Array.sub t.child_buf lo (t.child_off.(v + 1) - lo)

let parents t v =
  check_id t v "Lattice.parents";
  let lo = t.parent_off.(v) in
  Array.sub t.parent_buf lo (t.parent_off.(v + 1) - lo)

let iter_vertices f t =
  for v = 0 to num_vertices t - 1 do
    f v
  done

let entries t =
  Array.init (num_vertices t - 1) (fun k -> (itemset t (k + 1), t.supports.(k + 1)))

let fresh_marks t = Olar_util.Bitset.create (num_vertices t)

(* ------------------------------------------------------------------ *)
(* Raw CSR access for the query kernels. *)

let child_offsets t = t.child_off
let child_edges t = t.child_buf
let parent_offsets t = t.parent_off
let parent_edges t = t.parent_buf
let support_array t = t.supports
let item_offsets t = t.item_off
let item_buffer t = t.item_buf

let iter_children t v f =
  check_id t v "Lattice.iter_children";
  for i = t.child_off.(v) to t.child_off.(v + 1) - 1 do
    f t.child_buf.(i)
  done

let iter_parents t v f =
  check_id t v "Lattice.iter_parents";
  for i = t.parent_off.(v) to t.parent_off.(v + 1) - 1 do
    f t.parent_buf.(i)
  done

let compare_strength t a b =
  let c = Int.compare t.supports.(b) t.supports.(a) in
  if c <> 0 then c else Int.compare a b

let vertex_has_subset t v x =
  let card = Itemset.cardinal x in
  card = 0
  || begin
       let hi = t.item_off.(v + 1) in
       let lo = ref t.item_off.(v) in
       let k = ref 0 in
       let ok = ref true in
       while !ok && !k < card do
         let target = Itemset.nth x !k in
         while !lo < hi && t.item_buf.(!lo) < target do
           incr lo
         done;
         if !lo < hi && t.item_buf.(!lo) = target then incr k else ok := false
       done;
       !ok
     end

let vertex_disjoint t v x =
  let card = Itemset.cardinal x in
  card = 0
  || begin
       let hi = t.item_off.(v + 1) in
       let lo = ref t.item_off.(v) in
       let k = ref 0 in
       let disjoint = ref true in
       while !disjoint && !lo < hi && !k < card do
         let i = t.item_buf.(!lo) and j = Itemset.nth x !k in
         if i = j then disjoint := false
         else if i < j then incr lo
         else incr k
       done;
       !disjoint
     end

(* ------------------------------------------------------------------ *)
(* Size accounting. *)

(* Heap cost model (64-bit words): each of the eight flat arrays costs
   a header word plus one word per element (four offset/support arrays
   of ~n elements, three buffers of e elements), the open-addressed
   index costs its power-of-two capacity, and the record itself ~12
   words. Kept in sync with Olar_mining.Threshold.estimate_bytes, which
   mirrors this formula from a mining result before the lattice
   exists. *)
let estimated_bytes t =
  let word = 8 in
  let n = num_vertices t in
  let e = num_edges t in
  word * ((4 * n) + (3 * e) + index_capacity n + 23)

module Stats = struct
  type t = {
    vertices : int;
    edges : int;
    bytes : int;
    max_fanout : int;
    depth : int;
  }

  let pp fmt s =
    Format.fprintf fmt
      "vertices %d@ edges %d@ bytes %d@ max_fanout %d@ depth %d" s.vertices
      s.edges s.bytes s.max_fanout s.depth
end

let stats t =
  let n = num_vertices t in
  let max_fanout = ref 0 in
  for v = 0 to n - 1 do
    let fanout = t.child_off.(v + 1) - t.child_off.(v) in
    if fanout > !max_fanout then max_fanout := fanout
  done;
  (* ids are in cardinality order, so the last vertex is a largest
     itemset *)
  let depth = if n = 1 then 0 else t.item_off.(n) - t.item_off.(n - 1) in
  {
    Stats.vertices = n;
    edges = num_edges t;
    bytes = estimated_bytes t;
    max_fanout = !max_fanout;
    depth;
  }
