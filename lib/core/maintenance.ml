open Olar_data
module Vec = Olar_util.Vec

type update = {
  lattice : Lattice.t;
  delta_size : int;
  promoted_candidates : Itemset.t list;
  vertices_bumped : int;
  rows_resorted : int;
}

(* Count every primary itemset over the delta by one walk per delta
   transaction: the FindItemsets search restricted to that
   transaction's items. From a contained vertex the walk descends only
   to children that add an item above the vertex's largest one (the
   child's last packed item) and lying in the transaction, so each
   contained itemset is reached exactly once, from the parent that
   drops its largest item. Returns the bumped vertices in first-touch
   order with their delta counts. *)
let delta_counts lattice delta =
  let item_off = Lattice.item_offsets lattice
  and item_buf = Lattice.item_buffer lattice
  and child_off = Lattice.child_offsets lattice
  and child_buf = Lattice.child_edges lattice in
  (* The singletons are vertices 1..s in item order (s = the root's
     fanout), so the largest item in the lattice is vertex s's. *)
  let s = child_off.(1) in
  let universe = if s = 0 then 0 else item_buf.(item_off.(s)) + 1 in
  let in_txn = Array.make universe (-1) in
  let count = Array.make (Lattice.num_vertices lattice) 0 in
  let bumped = Vec.create () and stack = Vec.create () in
  Database.iteri
    (fun tid txn ->
      Itemset.iter (fun i -> if i < universe then in_txn.(i) <- tid) txn;
      Vec.push stack (Lattice.root lattice);
      while not (Vec.is_empty stack) do
        let v = Vec.pop stack in
        let hi = item_off.(v + 1) in
        let top = if hi > item_off.(v) then item_buf.(hi - 1) else -1 in
        for k = child_off.(v) to child_off.(v + 1) - 1 do
          let c = child_buf.(k) in
          let i = item_buf.(item_off.(c + 1) - 1) in
          if i > top && in_txn.(i) = tid then begin
            if count.(c) = 0 then Vec.push bumped c;
            count.(c) <- count.(c) + 1;
            Vec.push stack c
          end
        done
      done)
    delta;
  let vertices = Vec.to_array bumped in
  (vertices, Array.map (fun v -> count.(v)) vertices)

(* Itemsets certainly frequent now but absent from the lattice: frequent
   within the delta alone (counts in the old data can only help) and
   minimal, i.e. every parent already primary. *)
let promotion_frontier ?domains lattice delta =
  let threshold = Lattice.threshold lattice in
  if Database.size delta < threshold then []
  else begin
    let delta_frequent =
      Olar_mining.Apriori.mine ?domains delta ~minsup:threshold
    in
    let candidates = ref [] in
    Olar_mining.Frequent.iter
      (fun x _ ->
        if
          (not (Lattice.mem lattice x))
          && List.for_all
               (fun (_, parent) -> Lattice.mem lattice parent)
               (Itemset.parents x)
        then candidates := x :: !candidates)
      delta_frequent;
    List.sort Itemset.compare !candidates
  end

let append ?domains lattice delta =
  let vertices, counts = delta_counts lattice delta in
  let lattice', rows_resorted =
    Lattice.bump lattice
      ~db_size:(Lattice.db_size lattice + Database.size delta)
      ~vertices ~counts
  in
  {
    lattice = lattice';
    delta_size = Database.size delta;
    promoted_candidates = promotion_frontier ?domains lattice delta;
    vertices_bumped = Array.length vertices;
    rows_resorted;
  }

let rebuild ?stats ?domains ~threshold ~old_db ~delta () =
  let num_items = max (Database.num_items old_db) (Database.num_items delta) in
  let merged =
    Database.create ~num_items
      (Array.append
         (Array.init (Database.size old_db) (Database.get old_db))
         (Array.init (Database.size delta) (Database.get delta)))
  in
  let frequent = Olar_mining.Dhp.mine ?stats ?domains merged ~minsup:threshold in
  Lattice.of_entries ~db_size:(Database.size merged) ~threshold
    (Array.of_list (Olar_mining.Frequent.to_list frequent))
