open Olar_data
module Vec = Olar_util.Vec

(* The frozen trie, laid out breadth-first in flat arrays:
   - nodes are numbered level by level from the root (0), and within a
     level in the lex order of their prefixes, so the internal nodes
     (levels 0 .. depth-1) are [0, leaf_base) and the leaves follow;
   - the children of internal node [v] are the edges
     [row_start.(v), row_start.(v + 1)), sorted by [child_item];
   - edges are numbered in the same breadth-first order, so edge [e]
     leads to node [e + 1] and no child-node array is needed;
   - leaf [leaf_base + r] is candidate [keys.(r)], counted in
     [counts.(r)]. *)
type frozen = {
  keys : Itemset.t array; (* distinct candidates, lex-sorted *)
  row_start : int array; (* leaf_base + 1 entries *)
  child_item : int array; (* one per edge *)
  leaf_base : int;
  counts : int array; (* one per key *)
}

type t = {
  trie_depth : int;
  mutable pending : Itemset.t Vec.t; (* inserted, not yet frozen *)
  mutable sorted : bool; (* [pending] is strictly increasing (lex) *)
  mutable frozen : frozen option;
}

let create ~depth =
  if depth < 1 then invalid_arg "Trie.create";
  { trie_depth = depth; pending = Vec.create (); sorted = true; frozen = None }

let depth t = t.trie_depth

(* Candidates usually arrive lex-sorted (apriori-gen emits them so), so
   an insert compares with the last one only; anything out of order is
   sorted and deduplicated once, when the keys are needed. *)
let insert t x =
  if Itemset.cardinal x <> t.trie_depth then invalid_arg "Trie.insert: wrong arity";
  if Option.is_some t.frozen then invalid_arg "Trie.insert: after counting";
  if Vec.is_empty t.pending then Vec.push t.pending x
  else begin
    let c = Itemset.compare_lex (Vec.last t.pending) x in
    if c <> 0 then begin
      if c > 0 then t.sorted <- false;
      Vec.push t.pending x
    end
  end

let sorted_keys t =
  if not t.sorted then begin
    let a = Vec.to_array t.pending in
    Array.sort Itemset.compare_lex a;
    let out = Vec.with_capacity (Array.length a) in
    Array.iter
      (fun x ->
        if Vec.is_empty out || Itemset.compare_lex (Vec.last out) x <> 0 then
          Vec.push out x)
      a;
    t.pending <- out;
    t.sorted <- true
  end;
  t.pending

(* Build the breadth-first layout from lex-sorted distinct keys. A key
   starts a new node at level [l] exactly when it shares fewer than [l]
   leading items with the key before it. *)
let build depth keys =
  let m = Array.length keys in
  let lcp = Array.make m 0 in
  for r = 1 to m - 1 do
    let a = Itemset.as_array keys.(r - 1) and b = Itemset.as_array keys.(r) in
    (* distinct keys of one length differ before position [depth] *)
    let p = ref 0 in
    while a.(!p) = b.(!p) do
      incr p
    done;
    lcp.(r) <- !p
  done;
  let starts r l = r = 0 || lcp.(r) < l in
  let width = Array.make (depth + 1) 0 in
  width.(0) <- 1;
  for l = 1 to depth do
    for r = 0 to m - 1 do
      if starts r l then width.(l) <- width.(l) + 1
    done
  done;
  let leaf_base = ref 0 and edges = ref 0 in
  for l = 0 to depth - 1 do
    leaf_base := !leaf_base + width.(l);
    edges := !edges + width.(l + 1)
  done;
  let leaf_base = !leaf_base and edges = !edges in
  (* every internal node has a child, so each row start is set below;
     the sentinel row_start.(leaf_base) keeps the initial [edges] *)
  let row_start = Array.make (leaf_base + 1) edges in
  let child_item = Array.make edges 0 in
  let e = ref 0 and level_base = ref 0 in
  for l = 1 to depth do
    let parent = ref (!level_base - 1) in
    for r = 0 to m - 1 do
      if starts r l then begin
        if starts r (l - 1) then begin
          incr parent;
          row_start.(!parent) <- !e
        end;
        child_item.(!e) <- (Itemset.as_array keys.(r)).(l - 1);
        incr e
      end
    done;
    level_base := !level_base + width.(l - 1)
  done;
  { keys; row_start; child_item; leaf_base; counts = Array.make m 0 }

let freeze t =
  match t.frozen with
  | Some f -> f
  | None ->
    let f = build t.trie_depth (Vec.to_array (sorted_keys t)) in
    t.frozen <- Some f;
    t.pending <- Vec.create ();
    f

let size t =
  match t.frozen with
  | Some f -> Array.length f.keys
  | None -> Vec.length (sorted_keys t)

(* A row this many times longer than the transaction suffix that may
   still match it (the root row, most often) is searched item by item
   instead of merged. *)
let binary_search_ratio = 8

(* Match the row of [node] (at level [lvl]) against items[from, last],
   where [last] leaves room for the [depth - lvl - 1] deeper items, and
   descend through every hit. *)
let rec descend f depth items n node lvl from =
  let lo = f.row_start.(node) and hi = f.row_start.(node + 1) in
  let last = n - (depth - lvl) in
  let leaf = lvl + 1 = depth in
  if hi - lo > binary_search_ratio * (last - from + 1) then begin
    let lo = ref lo and i = ref from in
    while !i <= last && !lo < hi do
      let x = items.(!i) in
      let a = ref !lo and b = ref hi in
      while !a < !b do
        let mid = (!a + !b) lsr 1 in
        if f.child_item.(mid) < x then a := mid + 1 else b := mid
      done;
      lo := !a;
      if !a < hi && f.child_item.(!a) = x then begin
        hit f depth items n leaf !a lvl !i;
        lo := !a + 1
      end;
      incr i
    done
  end
  else begin
    let e = ref lo and i = ref from in
    while !e < hi && !i <= last do
      let c = f.child_item.(!e) and x = items.(!i) in
      if c < x then incr e
      else if c > x then incr i
      else begin
        hit f depth items n leaf !e lvl !i;
        incr e;
        incr i
      end
    done
  end

and hit f depth items n leaf e lvl i =
  if leaf then begin
    let r = e + 1 - f.leaf_base in
    f.counts.(r) <- f.counts.(r) + 1
  end
  else descend f depth items n (e + 1) (lvl + 1) (i + 1)

let count_transaction t txn =
  let f = freeze t in
  let items = Itemset.as_array txn in
  let n = Array.length items in
  if n >= t.trie_depth then descend f t.trie_depth items n 0 0 0

let count t x =
  if Itemset.cardinal x <> t.trie_depth then None
  else begin
    let f = freeze t in
    let rec search lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) / 2 in
        let c = Itemset.compare_lex f.keys.(mid) x in
        if c = 0 then Some f.counts.(mid)
        else if c < 0 then search (mid + 1) hi
        else search lo mid
    in
    search 0 (Array.length f.keys)
  end

let to_sorted_array t =
  let f = freeze t in
  Array.mapi (fun r x -> (x, f.counts.(r))) f.keys
