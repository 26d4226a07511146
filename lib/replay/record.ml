open Olar_data
module Jsonx = Olar_obs.Jsonx
module Pool = Olar_serve.Pool

type kind =
  | Find_itemsets
  | Count_itemsets
  | Essential_rules
  | All_rules
  | Single_consequent_rules
  | Support_for_k_itemsets
  | Support_for_k_rules
  | Boundary
  | Append

type cache_path = Olar_serve.Session.path =
  | Hit
  | Refine
  | Miss
  | Passthrough

type t = {
  seq : int;
  kind : kind;
  containing : Itemset.t;
  antecedent_includes : Itemset.t;
  consequent_includes : Itemset.t;
  allow_empty_antecedent : bool;
  minsup : float option;
  minconf : float option;
  k : int option;
  delta : int list list;
  delta_num_items : int;
  cache : cache_path;
  digest : Fnv.t;
  result_size : int;
  latency_s : float;
  vertices : int;
  heap_pops : int;
  epoch : int;
}

let kind_to_string = function
  | Find_itemsets -> "find"
  | Count_itemsets -> "count"
  | Essential_rules -> "essential_rules"
  | All_rules -> "all_rules"
  | Single_consequent_rules -> "single_consequent_rules"
  | Support_for_k_itemsets -> "support_for_k_itemsets"
  | Support_for_k_rules -> "support_for_k_rules"
  | Boundary -> "boundary"
  | Append -> "append"

let kind_of_string = function
  | "find" -> Some Find_itemsets
  | "count" -> Some Count_itemsets
  | "essential_rules" -> Some Essential_rules
  | "all_rules" -> Some All_rules
  | "single_consequent_rules" -> Some Single_consequent_rules
  | "support_for_k_itemsets" -> Some Support_for_k_itemsets
  | "support_for_k_rules" -> Some Support_for_k_rules
  | "boundary" -> Some Boundary
  | "append" -> Some Append
  | _ -> None

let cache_path_to_string = function
  | Hit -> "hit"
  | Refine -> "refine"
  | Miss -> "miss"
  | Passthrough -> "pass"

let cache_path_of_string = function
  | "hit" -> Some Hit
  | "refine" -> Some Refine
  | "miss" -> Some Miss
  | "pass" -> Some Passthrough
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)
(* ------------------------------------------------------------------ *)

let itemset_json x =
  Jsonx.Arr (List.map (fun i -> Jsonx.Int i) (Itemset.to_list x))

let to_json_line r =
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  add "v" (Jsonx.Int 1);
  add "seq" (Jsonx.Int r.seq);
  add "kind" (Jsonx.Str (kind_to_string r.kind));
  if not (Itemset.is_empty r.containing) then
    add "containing" (itemset_json r.containing);
  if not (Itemset.is_empty r.antecedent_includes) then
    add "antecedent" (itemset_json r.antecedent_includes);
  if not (Itemset.is_empty r.consequent_includes) then
    add "consequent" (itemset_json r.consequent_includes);
  if r.allow_empty_antecedent then add "allow_empty" (Jsonx.Bool true);
  (match r.minsup with Some s -> add "minsup" (Jsonx.Float s) | None -> ());
  (match r.minconf with Some c -> add "minconf" (Jsonx.Float c) | None -> ());
  (match r.k with Some k -> add "k" (Jsonx.Int k) | None -> ());
  if r.delta <> [] then
    add "delta"
      (Jsonx.Arr
         (List.map
            (fun txn -> Jsonx.Arr (List.map (fun i -> Jsonx.Int i) txn))
            r.delta));
  if r.delta_num_items > 0 then add "num_items" (Jsonx.Int r.delta_num_items);
  add "cache" (Jsonx.Str (cache_path_to_string r.cache));
  add "digest" (Jsonx.Str (Fnv.to_hex r.digest));
  add "size" (Jsonx.Int r.result_size);
  add "lat_s" (Jsonx.Float r.latency_s);
  add "vertices" (Jsonx.Int r.vertices);
  add "pops" (Jsonx.Int r.heap_pops);
  add "epoch" (Jsonx.Int r.epoch);
  Jsonx.to_string (Jsonx.Obj (List.rev !fields))

(* The key alone — the wire body of the serving daemon's POST /query.
   Outcome fields (digest, latency, work, cache path) describe an
   execution that has not happened yet, so they are simply absent. *)
let key_to_json_line r =
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  add "v" (Jsonx.Int 1);
  add "kind" (Jsonx.Str (kind_to_string r.kind));
  if not (Itemset.is_empty r.containing) then
    add "containing" (itemset_json r.containing);
  if not (Itemset.is_empty r.antecedent_includes) then
    add "antecedent" (itemset_json r.antecedent_includes);
  if not (Itemset.is_empty r.consequent_includes) then
    add "consequent" (itemset_json r.consequent_includes);
  if r.allow_empty_antecedent then add "allow_empty" (Jsonx.Bool true);
  (match r.minsup with Some s -> add "minsup" (Jsonx.Float s) | None -> ());
  (match r.minconf with Some c -> add "minconf" (Jsonx.Float c) | None -> ());
  (match r.k with Some k -> add "k" (Jsonx.Int k) | None -> ());
  if r.delta <> [] then
    add "delta"
      (Jsonx.Arr
         (List.map
            (fun txn -> Jsonx.Arr (List.map (fun i -> Jsonx.Int i) txn))
            r.delta));
  if r.delta_num_items > 0 then add "num_items" (Jsonx.Int r.delta_num_items);
  Jsonx.to_string (Jsonx.Obj (List.rev !fields))

(* ------------------------------------------------------------------ *)
(* Decoding (strict)                                                  *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let req name = function
  | Some v -> v
  | None -> fail "missing field %S" name

let as_int name = function
  | Jsonx.Int i -> i
  | _ -> fail "field %S: expected integer" name

let as_float name = function
  | Jsonx.Int i -> float_of_int i
  | Jsonx.Float f -> f
  | _ -> fail "field %S: expected number" name

let as_str name = function
  | Jsonx.Str s -> s
  | _ -> fail "field %S: expected string" name

let as_itemset name v =
  match Jsonx.to_list v with
  | None -> fail "field %S: expected array" name
  | Some items -> Itemset.of_list (List.map (as_int name) items)

(* [strict] decodes a full log record: every outcome field is required.
   With [strict = false] (the wire-key mode behind {!key_of_json_line})
   the outcome fields — and "v"/"seq" — are optional with neutral
   defaults, but anything present must still parse and unknown kinds
   are still rejected. *)
let decode ~strict line =
  match Jsonx.of_string line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok json -> (
    try
      (match json with Jsonx.Obj _ -> () | _ -> fail "expected an object");
      let m name = Jsonx.member name json in
      let opt name f = Option.map (f name) (m name) in
      let dflt name f d = match m name with None when not strict -> d | v -> f name (req name v) in
      let version = dflt "v" as_int 1 in
      if version <> 1 then fail "unsupported record version %d" version;
      let kind_s = as_str "kind" (req "kind" (m "kind")) in
      let kind =
        match kind_of_string kind_s with
        | Some k -> k
        | None -> fail "unknown kind %S" kind_s
      in
      let cache_s = dflt "cache" as_str (cache_path_to_string Passthrough) in
      let cache =
        match cache_path_of_string cache_s with
        | Some c -> c
        | None -> fail "unknown cache path %S" cache_s
      in
      let digest_s = dflt "digest" as_str (Fnv.to_hex Fnv.empty) in
      let digest =
        match Fnv.of_hex digest_s with
        | Some d -> d
        | None -> fail "bad digest %S" digest_s
      in
      let itemset_field name =
        match m name with
        | None -> Itemset.empty
        | Some v -> as_itemset name v
      in
      let delta =
        match m "delta" with
        | None -> []
        | Some v -> (
          match Jsonx.to_list v with
          | None -> fail "field \"delta\": expected array"
          | Some txns ->
            List.map
              (fun txn ->
                match Jsonx.to_list txn with
                | None -> fail "field \"delta\": expected array of arrays"
                | Some items -> List.map (as_int "delta") items)
              txns)
      in
      Ok
        {
          seq = dflt "seq" as_int 0;
          kind;
          containing = itemset_field "containing";
          antecedent_includes = itemset_field "antecedent";
          consequent_includes = itemset_field "consequent";
          allow_empty_antecedent =
            (match m "allow_empty" with
            | Some (Jsonx.Bool b) -> b
            | Some _ -> fail "field \"allow_empty\": expected bool"
            | None -> false);
          minsup = opt "minsup" as_float;
          minconf = opt "minconf" as_float;
          k = opt "k" as_int;
          delta;
          delta_num_items =
            (match opt "num_items" as_int with Some n -> n | None -> 0);
          cache;
          digest;
          result_size = dflt "size" as_int 0;
          latency_s = dflt "lat_s" as_float 0.0;
          vertices = dflt "vertices" as_int 0;
          heap_pops = dflt "pops" as_int 0;
          epoch = dflt "epoch" as_int 0;
        }
    with Bad msg -> Error msg)

let of_json_line line = decode ~strict:true line
let key_of_json_line line = decode ~strict:false line

(* ------------------------------------------------------------------ *)
(* The key as a pool request, the response as an outcome             *)
(* ------------------------------------------------------------------ *)

let key ?(containing = Itemset.empty)
    ?(constraints = Olar_core.Boundary.unconstrained) ?minsup ?minconf ?k
    ?delta kind =
  {
    seq = 0;
    kind;
    containing;
    antecedent_includes = constraints.antecedent_includes;
    consequent_includes = constraints.consequent_includes;
    allow_empty_antecedent = constraints.allow_empty_antecedent;
    minsup;
    minconf;
    k;
    delta =
      (match delta with
      | None -> []
      | Some db ->
        List.rev (Database.fold (fun acc txn -> Itemset.to_list txn :: acc) [] db));
    delta_num_items = (match delta with None -> 0 | Some db -> Database.num_items db);
    cache = Passthrough;
    digest = Fnv.empty;
    result_size = 0;
    latency_s = 0.0;
    vertices = 0;
    heap_pops = 0;
    epoch = 0;
  }

let to_request r =
  let get name = function
    | Some v -> v
    | None -> fail "record is missing %s" name
  in
  let minsup () = get "minsup" r.minsup in
  let minconf () = get "minconf" r.minconf in
  let constraints =
    {
      Olar_core.Boundary.antecedent_includes = r.antecedent_includes;
      consequent_includes = r.consequent_includes;
      allow_empty_antecedent = r.allow_empty_antecedent;
    }
  in
  let containing = r.containing in
  try
    Ok
      (match r.kind with
      | Find_itemsets -> Pool.Find_itemsets { containing; minsup = minsup () }
      | Count_itemsets -> Pool.Count_itemsets { containing; minsup = minsup () }
      | Essential_rules ->
        let minsup = minsup () in
        Pool.Essential_rules
          { containing; constraints; minsup; minconf = minconf () }
      | All_rules ->
        let minsup = minsup () in
        Pool.All_rules { containing; constraints; minsup; minconf = minconf () }
      | Single_consequent_rules ->
        let minsup = minsup () in
        Pool.Single_consequent_rules { containing; minsup; minconf = minconf () }
      | Support_for_k_itemsets ->
        Pool.Support_for_k_itemsets { containing; k = get "k" r.k }
      | Support_for_k_rules ->
        let minconf = minconf () in
        Pool.Support_for_k_rules
          { involving = containing; minconf; k = get "k" r.k }
      | Boundary ->
        Pool.Boundary { target = containing; constraints; minconf = minconf () }
      | Append ->
        if r.delta_num_items <= 0 then fail "append record is missing num_items";
        Pool.Append (Database.of_lists ~num_items:r.delta_num_items r.delta))
  with Bad e -> Error e

let digest_response = function
  | Pool.R_items entries ->
    Some
      (Array.fold_left
         (fun h (x, count) -> Fnv.int (Fnv.itemset h x) count)
         Fnv.empty entries)
  | Pool.R_count c -> Some (Fnv.int Fnv.empty c)
  | Pool.R_rules rules ->
    Some
      (List.fold_left
         (fun h (r : Olar_core.Rule.t) ->
           let h = Fnv.itemset (Fnv.itemset h r.antecedent) r.consequent in
           Fnv.int (Fnv.int h r.support_count) r.antecedent_count)
         Fnv.empty rules)
  | Pool.R_level None -> Some (Fnv.int Fnv.empty 0)
  | Pool.R_level (Some level) -> Some (Fnv.float (Fnv.int Fnv.empty 1) level)
  | Pool.R_entries entries ->
    Some
      (List.fold_left
         (fun h (x, s) -> Fnv.float (Fnv.itemset h x) s)
         Fnv.empty entries)
  | Pool.R_promoted { promoted; db_size } ->
    Some (Fnv.int (List.fold_left Fnv.itemset Fnv.empty promoted) db_size)
  | Pool.R_error _ -> None

let result_size = function
  | Pool.R_items entries -> Array.length entries
  | Pool.R_count c -> c
  | Pool.R_rules rules -> List.length rules
  | Pool.R_level (Some _) -> 1
  | Pool.R_level None -> 0
  | Pool.R_entries entries -> List.length entries
  | Pool.R_promoted { promoted; _ } -> List.length promoted
  | Pool.R_error _ -> 0

let with_outcome key ~seq ~cache ~latency_s ~vertices ~heap_pops ~epoch resp =
  Option.map
    (fun digest ->
      {
        key with
        seq;
        cache;
        digest;
        result_size = result_size resp;
        latency_s;
        vertices;
        heap_pops;
        epoch;
      })
    (digest_response resp)

(* ------------------------------------------------------------------ *)
(* EXPLAIN rendering                                                  *)
(* ------------------------------------------------------------------ *)

let pp_itemset ppf x =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map string_of_int (Itemset.to_list x)))

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "#%d %s" r.seq (kind_to_string r.kind);
  if not (Itemset.is_empty r.containing) then
    Format.fprintf ppf " %a" pp_itemset r.containing;
  Option.iter (fun s -> Format.fprintf ppf " minsup=%g" s) r.minsup;
  Option.iter (fun c -> Format.fprintf ppf " minconf=%g" c) r.minconf;
  Option.iter (fun k -> Format.fprintf ppf " k=%d" k) r.k;
  if not (Itemset.is_empty r.antecedent_includes) then
    Format.fprintf ppf " antecedent⊇%a" pp_itemset r.antecedent_includes;
  if not (Itemset.is_empty r.consequent_includes) then
    Format.fprintf ppf " consequent⊇%a" pp_itemset r.consequent_includes;
  if r.allow_empty_antecedent then Format.fprintf ppf " allow-empty-antecedent";
  if r.delta <> [] then
    Format.fprintf ppf " delta=%d txns over %d items" (List.length r.delta)
      r.delta_num_items;
  Format.fprintf ppf "@,  cache=%s size=%d digest=%s"
    (cache_path_to_string r.cache)
    r.result_size (Fnv.to_hex r.digest);
  Format.fprintf ppf "@,  latency=%.3fms vertices=%d heap_pops=%d epoch=%d"
    (r.latency_s *. 1000.0) r.vertices r.heap_pops r.epoch;
  Format.fprintf ppf "@]"
