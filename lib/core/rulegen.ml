open Olar_data

let rule_of lattice ~target antecedent_vertex =
  let x = Lattice.itemset lattice target in
  let y = Lattice.itemset lattice antecedent_vertex in
  Rule.make ~antecedent:y
    ~consequent:(Itemset.diff x y)
    ~support_count:(Lattice.support lattice target)
    ~antecedent_count:(Lattice.support lattice antecedent_vertex)

(* [iter_generating f] applies [f] to the generating itemsets of a
   query in canonical order: all large itemsets big enough to split into
   a non-empty antecedent and consequent under [cs]. *)
let iter_generating ?work ?scratch ?containing lattice ~minsup cs f =
  let containing = Option.value containing ~default:Itemset.empty in
  let min_cardinal = if cs.Boundary.allow_empty_antecedent then 1 else 2 in
  Array.iter
    (fun v -> if Lattice.cardinal lattice v >= min_cardinal then f v)
    (Query.find_itemsets ?work ?scratch lattice ~containing ~minsup)

let essential_rules ?work ?scratch ?containing
    ?(constraints = Boundary.unconstrained) lattice ~minsup ~confidence =
  let boundaries : (Lattice.vertex_id, Lattice.vertex_id list) Hashtbl.t =
    Hashtbl.create 64
  in
  let boundary_of v =
    match Hashtbl.find_opt boundaries v with
    | Some b -> b
    | None ->
      let b =
        Boundary.find_boundary ?work ?scratch ~constraints lattice ~target:v
          ~confidence
      in
      Hashtbl.add boundaries v b;
      b
  in
  let rules = ref [] in
  iter_generating ?work ?scratch ?containing lattice ~minsup constraints
    (fun x ->
      let own = boundary_of x in
      if own <> [] then begin
        (* Theorem 4.5: prune the boundary of X against the boundaries of
           its large children. Children of X contain X, hence contain the
           [containing] filter as well — they are all in scope. *)
        let pruned = Hashtbl.create 16 in
        Lattice.iter_children lattice x (fun child ->
            if Lattice.support lattice child >= minsup then
              List.iter
                (fun y -> Hashtbl.replace pruned y ())
                (boundary_of child));
        List.iter
          (fun y ->
            if not (Hashtbl.mem pruned y) then
              rules := rule_of lattice ~target:x y :: !rules)
          own
      end);
  List.sort Rule.compare !rules

let all_rules ?work ?scratch ?containing ?(constraints = Boundary.unconstrained)
    lattice ~minsup ~confidence =
  let rules = ref [] in
  iter_generating ?work ?scratch ?containing lattice ~minsup constraints
    (fun x ->
      List.iter
        (fun y -> rules := rule_of lattice ~target:x y :: !rules)
        (Boundary.all_ancestor_antecedents ?work ?scratch ~constraints lattice
           ~target:x ~confidence));
  List.sort Rule.compare !rules

let single_consequent_rules ?work ?scratch ?containing lattice ~minsup
    ~confidence =
  let containing = Option.value containing ~default:Itemset.empty in
  let large = Query.find_itemsets ?work ?scratch lattice ~containing ~minsup in
  let rules = ref [] in
  Array.iter
    (fun v ->
      List.iter
        (fun r -> rules := r :: !rules)
        (Support_query.single_consequent_rules lattice ~confidence v))
    large;
  List.sort Rule.compare !rules

type redundancy_report = {
  total_rules : int;
  essential_count : int;
  redundancy_ratio : float;
}

let redundancy ?scratch ?containing lattice ~minsup ~confidence =
  let total =
    List.length (all_rules ?scratch ?containing lattice ~minsup ~confidence)
  in
  let essential =
    List.length
      (essential_rules ?scratch ?containing lattice ~minsup ~confidence)
  in
  let redundancy_ratio =
    if essential = 0 then 1.0 else float_of_int total /. float_of_int essential
  in
  { total_rules = total; essential_count = essential; redundancy_ratio }
