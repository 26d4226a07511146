open Olar_data

type t = {
  candidates : Itemset.t array;
  rank : int array; (* item -> rank, or -1 for an item in no candidate *)
  row_base : int array; (* cell of pair (a, b), a < b: row_base.(a) + b *)
  cells : int array;
  ranks : int array; (* one transaction's ranks, reused *)
}

(* Cells allowed per candidate before the trie is the cheaper counter,
   and the size below which the triangle is always fine. *)
let cells_per_candidate = 16
let min_cells = 65536

let create candidates =
  let max_item = ref (-1) in
  Array.iter
    (fun x ->
      if Itemset.cardinal x <> 2 then invalid_arg "Pair_triangle.create";
      max_item := max !max_item (Itemset.max_item x))
    candidates;
  let rank = Array.make (!max_item + 1) (-1) in
  Array.iter (fun x -> Itemset.iter (fun i -> rank.(i) <- 0) x) candidates;
  let r = ref 0 in
  Array.iteri
    (fun i v ->
      if v = 0 then begin
        rank.(i) <- !r;
        incr r
      end)
    rank;
  let r = !r in
  let num_cells = r * (r - 1) / 2 in
  if num_cells > max min_cells (cells_per_candidate * Array.length candidates)
  then None
  else begin
    (* row a holds the pairs (a, a+1 .. r-1) and starts after the
       r-1 + r-2 + ... + r-a cells of the rows before it *)
    let row_base = Array.init r (fun a -> (a * ((2 * r) - a - 1) / 2) - a - 1) in
    Some
      {
        candidates;
        rank;
        row_base;
        cells = Array.make num_cells 0;
        ranks = Array.make r 0;
      }
  end

let count_transaction t txn =
  let items = Itemset.as_array txn in
  let width = Array.length t.rank in
  let n = ref 0 in
  for j = 0 to Array.length items - 1 do
    let i = items.(j) in
    if i < width && t.rank.(i) >= 0 then begin
      t.ranks.(!n) <- t.rank.(i);
      incr n
    end
  done;
  for p = 0 to !n - 2 do
    let base = t.row_base.(t.ranks.(p)) in
    for q = p + 1 to !n - 1 do
      let c = base + t.ranks.(q) in
      t.cells.(c) <- t.cells.(c) + 1
    done
  done

let to_sorted_array t =
  Array.map
    (fun x ->
      let a = t.rank.(Itemset.min_item x) and b = t.rank.(Itemset.max_item x) in
      (x, t.cells.(t.row_base.(a) + b)))
    t.candidates
