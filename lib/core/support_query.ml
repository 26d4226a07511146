open Olar_data

type itemsets_answer = {
  itemsets : (Itemset.t * int) list;
  support_level : int option;
}

type rules_answer = {
  rules : Rule.t list;
  rule_support_level : int option;
}

let bump = Olar_util.Timer.Counter.bump

(* Best-first walk from v(Z): repeatedly pop the frontier vertex of
   highest support and feed it to [visit]; [visit] returns [true] to keep
   going. The root (empty itemset) is expanded but never visited. Vertices
   are marked when pushed, so each enters the heap once. The scratch heap
   is ordered by [Lattice.compare_strength] — decreasing support, ties by
   id, i.e. smaller itemsets first, then lexicographic. *)
let best_first ?work ?scratch lattice ~start ~visit =
  Scratch.use ?scratch lattice (fun s ->
      let child_off = Lattice.child_offsets lattice in
      let child_buf = Lattice.child_edges lattice in
      let marks = s.Scratch.marks in
      let epoch = s.Scratch.epoch in
      let heap = s.Scratch.heap in
      marks.(start) <- epoch;
      Olar_util.Heap.push heap start;
      let continue_search = ref true in
      while !continue_search && not (Olar_util.Heap.is_empty heap) do
        let v = Olar_util.Heap.pop_exn heap in
        bump work;
        if v <> Lattice.root lattice then continue_search := visit v;
        if !continue_search then
          for i = child_off.(v) to child_off.(v + 1) - 1 do
            let child = child_buf.(i) in
            bump work;
            if marks.(child) <> epoch then begin
              marks.(child) <- epoch;
              Olar_util.Heap.push heap child
            end
          done
      done)

let check_k ~rules k =
  if k < 1 then
    invalid_arg
      (if rules then "Support_query.find_support_for_rules: k"
       else "Support_query.find_support: k")

let find_support ?work ?scratch lattice ~containing ~k =
  check_k ~rules:false k;
  match Lattice.find lattice containing with
  | None -> { itemsets = []; support_level = None }
  | Some start ->
    let found = Olar_util.Vec.create () in
    best_first ?work ?scratch lattice ~start ~visit:(fun v ->
        Olar_util.Vec.push found (Lattice.itemset lattice v, Lattice.support lattice v);
        Olar_util.Vec.length found < k);
    let itemsets = Olar_util.Vec.to_list found in
    let support_level =
      if Olar_util.Vec.length found = k then Some (snd (Olar_util.Vec.last found))
      else None
    in
    { itemsets; support_level }

(* The one item of [x] its parent [antecedent] is missing. *)
let dropped_item x antecedent =
  let n = Itemset.cardinal antecedent in
  let k = ref 0 in
  while !k < n && Itemset.nth x !k = Itemset.nth antecedent !k do
    incr k
  done;
  Itemset.nth x !k

(* All single-consequent rules of the itemset at [v] clearing
   [confidence]: each parent vertex is an antecedent X \ {i} (present by
   downward closure), and the rule confidence is S(X) / S(X \ {i}). The
   CSR parent row is ascending by id — descending by dropped item — so
   consing through a forward scan lists the rules by increasing dropped
   item. *)
let single_consequent_rules lattice ~confidence v =
  let x = Lattice.itemset lattice v in
  let sup_x = Lattice.support lattice v in
  if Itemset.cardinal x < 2 then []
  else begin
    let parent_off = Lattice.parent_offsets lattice in
    let parent_buf = Lattice.parent_edges lattice in
    let supports = Lattice.support_array lattice in
    let out = ref [] in
    for i = parent_off.(v) to parent_off.(v + 1) - 1 do
      let p = parent_buf.(i) in
      let sup_a = supports.(p) in
      if Conf.satisfied confidence ~union_count:sup_x ~antecedent_count:sup_a
      then begin
        let antecedent = Lattice.itemset lattice p in
        out :=
          Rule.make ~antecedent
            ~consequent:(Itemset.singleton (dropped_item x antecedent))
            ~support_count:sup_x ~antecedent_count:sup_a
          :: !out
      end
    done;
    !out
  end

let find_support_for_rules ?work ?scratch lattice ~involving ~confidence ~k =
  check_k ~rules:true k;
  match Lattice.find lattice involving with
  | None -> { rules = []; rule_support_level = None }
  | Some start ->
    let rules = Olar_util.Vec.create () in
    let level = ref None in
    best_first ?work ?scratch lattice ~start ~visit:(fun v ->
        List.iter (Olar_util.Vec.push rules)
          (single_consequent_rules lattice ~confidence v);
        if Olar_util.Vec.length rules >= k then begin
          level := Some (Lattice.support lattice v);
          false
        end
        else true);
    { rules = Olar_util.Vec.to_list rules; rule_support_level = !level }
