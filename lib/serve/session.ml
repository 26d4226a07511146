open Olar_data
module Engine = Olar_core.Engine
module Lattice = Olar_core.Lattice
module Boundary = Olar_core.Boundary
module Rule = Olar_core.Rule
module Conf = Olar_core.Conf
module Obs = Olar_obs.Obs
module Metrics = Olar_obs.Metrics
module Counter = Olar_util.Timer.Counter

(* ------------------------------------------------------------------ *)
(* Canonical query keys                                               *)
(* ------------------------------------------------------------------ *)

(* One key per canonical query. [K_find] deliberately omits the support
   cut: a single entry per start itemset holds the widest answer seen so
   far (its [floor]) and serves every higher cut as a prefix. Rule
   queries key on the full (kind, start, constraints, thresholds) tuple
   — essential rules are not refinable across minsup because strict
   redundancy depends on which children are large at the lower cut. *)
type key =
  | K_find of Itemset.t
  | K_rules of {
      kind : Engine.rule_kind;
      containing : Itemset.t;
      constraints : Boundary.constraints;
      minsup : int;
      minconf : float;
    }
  | K_topk of Itemset.t
  | K_topk_rules of {
      involving : Itemset.t;
      minconf : float;
    }

let constraints_equal a b =
  Itemset.equal a.Boundary.antecedent_includes b.Boundary.antecedent_includes
  && Itemset.equal a.Boundary.consequent_includes b.Boundary.consequent_includes
  && Bool.equal a.Boundary.allow_empty_antecedent b.Boundary.allow_empty_antecedent

let key_equal a b =
  match (a, b) with
  | K_find x, K_find y -> Itemset.equal x y
  | K_rules a, K_rules b ->
    a.kind = b.kind && a.minsup = b.minsup
    && Float.equal a.minconf b.minconf
    && Itemset.equal a.containing b.containing
    && constraints_equal a.constraints b.constraints
  | K_topk x, K_topk y -> Itemset.equal x y
  | K_topk_rules a, K_topk_rules b ->
    Float.equal a.minconf b.minconf && Itemset.equal a.involving b.involving
  | _, _ -> false

let mix h x = ((h * 0x01000193) lxor x) land max_int

let key_hash = function
  | K_find x -> mix 1 (Itemset.hash x)
  | K_rules { kind; containing; constraints; minsup; minconf } ->
    let h = mix 2 (match kind with Engine.Essential -> 11 | All -> 13 | Single -> 17) in
    let h = mix h (Itemset.hash containing) in
    let h = mix h (Itemset.hash constraints.Boundary.antecedent_includes) in
    let h = mix h (Itemset.hash constraints.Boundary.consequent_includes) in
    let h = mix h (if constraints.Boundary.allow_empty_antecedent then 1 else 0) in
    let h = mix h minsup in
    mix h (Hashtbl.hash minconf)
  | K_topk x -> mix 3 (Itemset.hash x)
  | K_topk_rules { involving; minconf } ->
    mix (mix 4 (Itemset.hash involving)) (Hashtbl.hash minconf)

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal = key_equal
  let hash = key_hash
end)

(* ------------------------------------------------------------------ *)
(* Payloads and size accounting                                       *)
(* ------------------------------------------------------------------ *)

type payload =
  | P_find of { floor : int; ids : int array }
      (** canonical-order vertex ids at support cut [floor] *)
  | P_rules of Rule.t list
  | P_topk of { exhausted : bool; items : (Itemset.t * int) array }
      (** best-first pops, strongest first; [exhausted] when the run
          drained every itemset containing the start *)
  | P_topk_rules of { exhausted : bool; rules : Rule.t array }
      (** rules in pop order of their generating itemsets *)

(* Rough resident-size estimates in bytes (64-bit words), the same
   spirit as [Lattice.estimated_bytes]: headers cost ~2 words, an
   itemset is a sorted int array, a rule is a 4-field record. *)
let word = 8
let itemset_bytes x = word * (3 + Itemset.cardinal x)

let rule_bytes r =
  word * 5 + itemset_bytes r.Rule.antecedent + itemset_bytes r.Rule.consequent

let entry_overhead = word * 16

let key_bytes = function
  | K_find x | K_topk x -> itemset_bytes x
  | K_rules { containing; constraints; _ } ->
    (word * 8) + itemset_bytes containing
    + itemset_bytes constraints.Boundary.antecedent_includes
    + itemset_bytes constraints.Boundary.consequent_includes
  | K_topk_rules { involving; _ } -> (word * 4) + itemset_bytes involving

let payload_bytes = function
  | P_find { ids; _ } -> word * (3 + Array.length ids)
  | P_rules rules ->
    List.fold_left (fun acc r -> acc + (word * 3) + rule_bytes r) 0 rules
  | P_topk { items; _ } ->
    Array.fold_left
      (fun acc (x, _) -> acc + (word * 4) + itemset_bytes x)
      (word * 3) items
  | P_topk_rules { rules; _ } ->
    Array.fold_left (fun acc r -> acc + word + rule_bytes r) (word * 3) rules

let entry_bytes key payload =
  entry_overhead + key_bytes key + payload_bytes payload

(* ------------------------------------------------------------------ *)
(* Intrusive LRU over a byte budget                                   *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_key : key;
  e_epoch : int;
  mutable e_payload : payload;
  mutable e_bytes : int;
  mutable e_prev : entry option;
  mutable e_next : entry option;
}

type cache = {
  table : entry Tbl.t;
  budget : int;
  mutable head : entry option;  (* most recently used *)
  mutable tail : entry option;  (* eviction end *)
  mutable resident : int;
  hits : Counter.t;
  misses : Counter.t;
  refines : Counter.t;
  evictions : Counter.t;
  resident_gauge : Metrics.Gauge.t option;
  hist_find : Metrics.Histogram.t option;
  hist_rules : Metrics.Histogram.t option;
  hist_topk : Metrics.Histogram.t option;
}

let update_gauge c =
  match c.resident_gauge with
  | None -> ()
  | Some g -> Metrics.Gauge.set_int g c.resident

let unlink c e =
  (match e.e_prev with
  | Some p -> p.e_next <- e.e_next
  | None -> c.head <- e.e_next);
  (match e.e_next with
  | Some n -> n.e_prev <- e.e_prev
  | None -> c.tail <- e.e_prev);
  e.e_prev <- None;
  e.e_next <- None

let push_front c e =
  e.e_prev <- None;
  e.e_next <- c.head;
  (match c.head with Some h -> h.e_prev <- Some e | None -> c.tail <- Some e);
  c.head <- Some e

let touch c e =
  match c.head with
  | Some h when h == e -> ()
  | _ ->
    unlink c e;
    push_front c e

let remove c e =
  unlink c e;
  Tbl.remove c.table e.e_key;
  c.resident <- c.resident - e.e_bytes

let enforce_budget c =
  let continue = ref true in
  while c.resident > c.budget && !continue do
    match c.tail with
    | None -> continue := false
    | Some e ->
      remove c e;
      Counter.incr c.evictions
  done;
  update_gauge c

let insert c key epoch payload =
  (match Tbl.find_opt c.table key with Some old -> remove c old | None -> ());
  let e =
    {
      e_key = key;
      e_epoch = epoch;
      e_payload = payload;
      e_bytes = entry_bytes key payload;
      e_prev = None;
      e_next = None;
    }
  in
  Tbl.replace c.table key e;
  push_front c e;
  c.resident <- c.resident + e.e_bytes;
  enforce_budget c

(* Widen an entry in place (same key, same epoch, broader payload). *)
let replace_payload c e payload =
  let bytes = entry_bytes e.e_key payload in
  c.resident <- c.resident - e.e_bytes + bytes;
  e.e_payload <- payload;
  e.e_bytes <- bytes;
  touch c e;
  enforce_budget c

(* A stale entry (older engine epoch) is structurally unservable: drop
   it on sight and report a clean miss. *)
let lookup c ~epoch key =
  match Tbl.find_opt c.table key with
  | None -> None
  | Some e when e.e_epoch <> epoch ->
    remove c e;
    update_gauge c;
    None
  | Some e ->
    touch c e;
    Some e

(* ------------------------------------------------------------------ *)
(* Session                                                            *)
(* ------------------------------------------------------------------ *)

(* How the last query on a session was served; read back by the workload
   recorder (lib/replay) right after the call returns. *)
type path =
  | Hit
  | Refine
  | Miss
  | Passthrough

type t = {
  mutable engine : Engine.t;
  cache : cache option;
  mutable last_path : path;
}

type stats = {
  hits : int;
  misses : int;
  refines : int;
  evictions : int;
  resident_bytes : int;
  entries : int;
  budget_bytes : int;
}

let default_budget_bytes = 32 * 1024 * 1024

let create ?budget_bytes engine =
  let budget = Option.value ~default:default_budget_bytes budget_bytes in
  if budget < 0 then invalid_arg "Session.create: budget_bytes";
  let obs = Engine.obs engine in
  let cache =
    if budget = 0 then None
    else begin
      let counter name help =
        match obs with
        | Some ctx -> Obs.counter ctx ~help name
        | None -> Counter.create name
      in
      let gauge name help =
        match obs with
        | Some ctx -> Some (Obs.gauge ctx ~help name)
        | None -> None
      in
      let hist name help =
        match obs with
        | Some ctx -> Some (Metrics.histogram (Obs.metrics ctx) ~help name)
        | None -> None
      in
      Some
        {
          table = Tbl.create 256;
          budget;
          head = None;
          tail = None;
          resident = 0;
          hits = counter "olar_cache_hits_total" "Queries answered from the session cache";
          misses =
            counter "olar_cache_misses_total"
              "Queries that recomputed and populated the session cache";
          refines =
            counter "olar_cache_refines_total"
              "Cache hits served by prefix/top-k subsumption of a broader entry";
          evictions =
            counter "olar_cache_evictions_total"
              "Entries evicted to keep the cache within its byte budget";
          resident_gauge =
            gauge "olar_cache_resident_bytes"
              "Estimated resident bytes of cached results";
          hist_find =
            hist "olar_cache_hit_find_seconds" "Latency of FindItemsets cache hits";
          hist_rules =
            hist "olar_cache_hit_rules_seconds" "Latency of rule-query cache hits";
          hist_topk =
            hist "olar_cache_hit_topk_seconds" "Latency of FindSupport cache hits";
        }
    end
  in
  { engine; cache; last_path = Passthrough }

let engine t = t.engine
let enabled t = t.cache <> None
let last_path t = t.last_path

let fraction e count = float_of_int count /. float_of_int (max 1 (Engine.db_size e))

(* Record a hit's latency into the per-kind histogram (telemetry on)
   or just run it (telemetry off). *)
let observe hist f =
  match hist with
  | None -> f ()
  | Some h ->
    let clock = Olar_util.Timer.start () in
    let r = f () in
    Metrics.Histogram.observe h (Olar_util.Timer.elapsed_s clock);
    r

(* ------------------------------------------------------------------ *)
(* One combinator over the four cache families                        *)
(* ------------------------------------------------------------------ *)

(* The families — find prefix, exact rules, top-k itemsets, top-k
   rules — differ only in key, coverage test, answer and compute. A
   request is its key plus [n]: the support cut of a find, the [k] of a
   top-k (unused by rules). *)

(* Length of the prefix of [ids] (canonical order: support descending)
   whose support clears [minsup] — the refinement binary search. *)
let prefix_length lat ids minsup =
  let sup = Lattice.support_array lat in
  let n = Array.length ids in
  if n = 0 || sup.(ids.(0)) < minsup then 0
  else if sup.(ids.(n - 1)) >= minsup then n
  else begin
    (* sup ids.(lo) >= minsup > sup ids.(hi) *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if sup.(ids.(mid)) >= minsup then lo := mid else hi := mid
    done;
    !hi
  end

(* A find entry serves every cut at or above its floor as a prefix. A
   best-first run of length [len] answers every k <= len (the level is
   the support of the k-th pop) and, when it exhausted the reachable
   set, every k > len as well (the answer is None). Rules serve only
   their exact key. *)
let covers payload n =
  let run ~exhausted ~len =
    if n <= len || exhausted then if n = len then Hit else Refine else Miss
  in
  match payload with
  | P_find { floor; _ } -> if n < floor then Miss else if n = floor then Hit else Refine
  | P_rules _ -> Hit
  | P_topk { exhausted; items } -> run ~exhausted ~len:(Array.length items)
  | P_topk_rules { exhausted; rules } -> run ~exhausted ~len:(Array.length rules)

let compute e key n =
  match key with
  | K_find containing ->
    P_find { floor = n; ids = Engine.itemset_ids e ~containing ~minsup:n }
  | K_rules { kind; containing; constraints; minsup; minconf } ->
    P_rules
      (Engine.rules e kind ~containing ~constraints ~minsup
         ~confidence:(Conf.of_float minconf))
  | K_topk containing ->
    let a = Engine.top_k e ~containing ~k:n in
    P_topk { exhausted = a.support_level = None; items = Array.of_list a.itemsets }
  | K_topk_rules { involving; minconf } ->
    let a = Engine.top_k_rules e ~involving ~confidence:(Conf.of_float minconf) ~k:n in
    P_topk_rules
      { exhausted = a.rule_support_level = None; rules = Array.of_list a.rules }

(* Lookup; a covering entry is a hit or refine, anything else computes
   and widens the stale entry in place or inserts a new one. With no
   table the same compute and answer run as a passthrough. Arguments
   arrive validated, so only executed queries reach the engine's span. *)
let serve t key n answer =
  let e = t.engine in
  match t.cache with
  | None ->
    t.last_path <- Passthrough;
    answer e (compute e key n) n
  | Some c -> (
    let epoch = Engine.epoch e in
    let entry = lookup c ~epoch key in
    let path = match entry with Some en -> covers en.e_payload n | None -> Miss in
    t.last_path <- path;
    match entry with
    | Some en when path <> Miss ->
      Counter.incr c.hits;
      if path = Refine then Counter.incr c.refines;
      let hist =
        match key with
        | K_find _ -> c.hist_find
        | K_rules _ -> c.hist_rules
        | K_topk _ | K_topk_rules _ -> c.hist_topk
      in
      observe hist (fun () -> answer e en.e_payload n)
    | _ ->
      Counter.incr c.misses;
      let payload = compute e key n in
      (match entry with
      | Some en -> replace_payload c en payload
      | None -> insert c key epoch payload);
      answer e payload n)

(* ------------------------------------------------------------------ *)
(* Queries: validate once, then serve                                 *)
(* ------------------------------------------------------------------ *)

let find_prefix e payload cut =
  match payload with
  | P_find { ids; _ } -> (ids, prefix_length (Engine.lattice e) ids cut)
  | _ -> assert false

let itemset_ids ?(containing = Itemset.empty) t ~minsup =
  serve t (K_find containing) (Engine.cut t.engine minsup) (fun e p cut ->
      let ids, len = find_prefix e p cut in
      Array.sub ids 0 len)

(* Counting keeps no ids, so with no table it runs the counting kernel
   and allocates nothing beyond the engine's own. *)
let count_itemsets ?(containing = Itemset.empty) t ~minsup =
  let cut = Engine.cut t.engine minsup in
  match t.cache with
  | None ->
    t.last_path <- Passthrough;
    Engine.itemset_count t.engine ~containing ~minsup:cut
  | Some _ -> serve t (K_find containing) cut (fun e p cut -> snd (find_prefix e p cut))

let rules kind ?(containing = Itemset.empty) ?(constraints = Boundary.unconstrained) t
    ~minsup ~minconf =
  let minsup = Engine.cut ~minconf t.engine minsup in
  serve t (K_rules { kind; containing; constraints; minsup; minconf }) 0 (fun _ p _ ->
      match p with P_rules rs -> rs | _ -> assert false)

let essential_rules ?containing ?constraints t ~minsup ~minconf =
  rules Engine.Essential ?containing ?constraints t ~minsup ~minconf

let all_rules ?containing ?constraints t ~minsup ~minconf =
  rules Engine.All ?containing ?constraints t ~minsup ~minconf

let single_consequent_rules ?containing t ~minsup ~minconf =
  rules Engine.Single ?containing t ~minsup ~minconf

let support_for_k_itemsets t ~containing ~k =
  Engine.check_k ~rules:false k;
  serve t (K_topk containing) k (fun e p k ->
      match p with
      | P_topk { items; _ } ->
        if k <= Array.length items then Some (fraction e (snd items.(k - 1))) else None
      | _ -> assert false)

let support_for_k_rules t ~involving ~minconf ~k =
  ignore (Conf.of_float minconf);
  Engine.check_k ~rules:true k;
  serve t (K_topk_rules { involving; minconf }) k (fun e p k ->
      match p with
      | P_topk_rules { rules; _ } ->
        (* the k-th rule in pop order comes from the run's stopping
           vertex, whose support is exactly the k-rule level *)
        if k <= Array.length rules then Some (fraction e rules.(k - 1).Rule.support_count)
        else None
      | _ -> assert false)

(* FindBoundary answers are cheap relative to their keys (full
   constraint tuples) and rarely repeat within a session, so they are
   never cached — the session only forwards, for uniform recording. *)
let boundary ?constraints t ~target ~minconf =
  t.last_path <- Passthrough;
  Engine.boundary ?constraints t.engine ~target ~minconf

(* ------------------------------------------------------------------ *)
(* Maintenance                                                        *)
(* ------------------------------------------------------------------ *)

let append ?domains t delta =
  t.last_path <- Passthrough;
  let engine', promoted = Engine.append ?domains t.engine delta in
  t.engine <- engine';
  (* entries from the old epoch are now unservable; [lookup] drops them
     lazily and the LRU budget bounds them meanwhile *)
  promoted

(* Adopt an engine built elsewhere. The pool folds an append delta once
   on slot 0 and publishes the result as a snapshot; each
   worker session adopts its per-domain view of that snapshot at its
   next claim. The new epoch makes the old entries unservable exactly
   as in [append]. *)
let adopt_engine t engine' = t.engine <- engine'

let flush t =
  match t.cache with
  | None -> ()
  | Some c ->
    Tbl.reset c.table;
    c.head <- None;
    c.tail <- None;
    c.resident <- 0;
    update_gauge c

let stats t =
  match t.cache with
  | None ->
    {
      hits = 0;
      misses = 0;
      refines = 0;
      evictions = 0;
      resident_bytes = 0;
      entries = 0;
      budget_bytes = 0;
    }
  | Some c ->
    {
      hits = Counter.value c.hits;
      misses = Counter.value c.misses;
      refines = Counter.value c.refines;
      evictions = Counter.value c.evictions;
      resident_bytes = c.resident;
      entries = Tbl.length c.table;
      budget_bytes = c.budget;
    }
