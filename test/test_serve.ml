(* The session cache (lib/serve): canonical-order and prefix-property
   pins, a differential oracle against a cache-less engine across random
   interleavings of queries and appends, and units for refinement
   accounting, LRU eviction, epoch invalidation and the disabled
   passthrough.

   The refinement machinery is only sound if (a) query output order is
   the total order [Lattice.compare_strength] and (b) the answer at a
   higher support cut is a literal prefix of the answer at a lower one —
   both are pinned here as properties so a change to the canonical order
   fails loudly. *)

open Olar_data
open Olar_core
module Session = Olar_serve.Session

let check = Alcotest.check
let set = Itemset.of_list

let lattice_of db ~threshold =
  let entries = Array.of_list (Helpers.brute_frequent db ~minsup:threshold) in
  Lattice.of_entries ~db_size:(Database.size db) ~threshold entries

(* [Engine.itemsets] through the session: its vertex ids, materialised
   with fractional supports. *)
let items ?containing session ~minsup =
  let ids = Session.itemset_ids ?containing session ~minsup in
  let lat = Engine.lattice (Session.engine session) in
  let db = float_of_int (max 1 (Lattice.db_size lat)) in
  Array.to_list
    (Array.map
       (fun v -> (Lattice.itemset lat v, float_of_int (Lattice.support lat v) /. db))
       ids)

(* ------------------------------------------------------------------ *)
(* Canonical order + prefix property (the refinement soundness pins)  *)

let scenario_gen =
  let open QCheck2.Gen in
  let* db = Helpers.db_gen in
  let* threshold = int_range 1 4 in
  let* containing = Helpers.itemset_gen ~num_items:(Database.num_items db) in
  let* extra = int_range 0 4 in
  let* raise_by = int_range 0 4 in
  return (db, threshold, containing, threshold + extra, raise_by)

let scenario_print (db, threshold, containing, minsup, raise_by) =
  Format.asprintf "%s@ threshold=%d containing=%a minsup=%d raise_by=%d"
    (Helpers.db_print db) threshold Itemset.pp containing minsup raise_by

(* Result of find_itemsets is strictly sorted by compare_strength:
   support descending, ties broken by ascending id. *)
let canonical_order_prop =
  QCheck2.Test.make ~name:"find_itemsets is in canonical order" ~count:250
    ~print:scenario_print scenario_gen
    (fun (db, threshold, containing, minsup, _) ->
      let lat = lattice_of db ~threshold in
      let ids = Query.find_itemsets lat ~containing ~minsup in
      let sup = Lattice.support_array lat in
      let rec sorted = function
        | a :: (b :: _ as rest) ->
          (sup.(a) > sup.(b) || (sup.(a) = sup.(b) && a < b))
          && Lattice.compare_strength lat a b < 0
          && sorted rest
        | _ -> true
      in
      sorted (Array.to_list ids))

(* The answer at minsup + raise_by is a literal prefix of the answer at
   minsup — what the cache's binary-search refinement relies on. *)
let prefix_property_prop =
  QCheck2.Test.make ~name:"higher cut is a prefix of lower cut" ~count:250
    ~print:scenario_print scenario_gen
    (fun (db, threshold, containing, minsup, raise_by) ->
      let lat = lattice_of db ~threshold in
      let low = Query.find_itemsets lat ~containing ~minsup in
      let high =
        Query.find_itemsets lat ~containing ~minsup:(minsup + raise_by)
      in
      let rec is_prefix p l =
        match (p, l) with
        | [], _ -> true
        | a :: p', b :: l' -> a = b && is_prefix p' l'
        | _ :: _, [] -> false
      in
      is_prefix (Array.to_list high) (Array.to_list low))

(* ------------------------------------------------------------------ *)
(* Differential: session vs cache-less engine over random interleaves *)

type op =
  | Q_items of Itemset.t * int  (* extra support above the threshold *)
  | Q_ids of Itemset.t * int
  | Q_count of Itemset.t * int
  | Q_ess of Itemset.t * int * float
  | Q_all of Itemset.t * int * float
  | Q_single of Itemset.t * int * float
  | Q_topk of Itemset.t * int
  | Q_topk_rules of Itemset.t * float * int
  | Append of Database.t

let op_print = function
  | Q_items (x, e) -> Format.asprintf "items(%a,+%d)" Itemset.pp x e
  | Q_ids (x, e) -> Format.asprintf "ids(%a,+%d)" Itemset.pp x e
  | Q_count (x, e) -> Format.asprintf "count(%a,+%d)" Itemset.pp x e
  | Q_ess (x, e, c) -> Format.asprintf "ess(%a,+%d,%g)" Itemset.pp x e c
  | Q_all (x, e, c) -> Format.asprintf "all(%a,+%d,%g)" Itemset.pp x e c
  | Q_single (x, e, c) -> Format.asprintf "single(%a,+%d,%g)" Itemset.pp x e c
  | Q_topk (x, k) -> Format.asprintf "topk(%a,%d)" Itemset.pp x k
  | Q_topk_rules (x, c, k) ->
    Format.asprintf "topk_rules(%a,%g,%d)" Itemset.pp x c k
  | Append d -> Format.asprintf "append(%d txns)" (Database.size d)

let delta_gen ~num_items =
  let open QCheck2.Gen in
  let* num_txns = int_range 1 8 in
  let txn =
    let* size = int_range 0 num_items in
    let* items = list_repeat size (int_range 0 (num_items - 1)) in
    return items
  in
  let* rows = list_repeat num_txns txn in
  return (Database.of_lists ~num_items rows)

let op_gen ~num_items =
  let open QCheck2.Gen in
  let iset = Helpers.itemset_gen ~num_items in
  let extra = int_range 0 4 in
  let conf = oneofl [ 0.3; 0.5; 0.75; 0.9; 1.0 ] in
  let kk = int_range 1 12 in
  frequency
    [
      (3, map2 (fun x e -> Q_items (x, e)) iset extra);
      (2, map2 (fun x e -> Q_ids (x, e)) iset extra);
      (2, map2 (fun x e -> Q_count (x, e)) iset extra);
      (2, map3 (fun x e c -> Q_ess (x, e, c)) iset extra conf);
      (1, map3 (fun x e c -> Q_all (x, e, c)) iset extra conf);
      (1, map3 (fun x e c -> Q_single (x, e, c)) iset extra conf);
      (2, map2 (fun x k -> Q_topk (x, k)) iset kk);
      (1, map3 (fun x c k -> Q_topk_rules (x, c, k)) iset conf kk);
      (1, map (fun d -> Append d) (delta_gen ~num_items));
    ]

let session_scenario_gen =
  let open QCheck2.Gen in
  let* db = Helpers.db_gen in
  let* threshold = int_range 1 3 in
  let* n_ops = int_range 1 25 in
  let* ops = list_repeat n_ops (op_gen ~num_items:(Database.num_items db)) in
  return (db, threshold, ops)

let session_scenario_print (db, threshold, ops) =
  Format.asprintf "%s@ threshold=%d ops=[%a]" (Helpers.db_print db) threshold
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ";@ ")
       (fun f o -> Format.pp_print_string f (op_print o)))
    ops

(* Replay [ops] against a session (cache on) and against a bare engine;
   every answer must be identical — including after appends, where the
   session must never serve an entry from the previous epoch. *)
let run_differential ~budget_bytes (db, threshold, ops) =
  let lat = lattice_of db ~threshold in
  let session = Session.create ~budget_bytes (Engine.of_lattice lat) in
  let oracle = ref (Engine.of_lattice lat) in
  let ok = ref true in
  let fail name = ok := false; ignore name in
  let frac extra =
    (* a fractional support that Engine.count_of_support maps to a count
       >= threshold on the current database; None when it cannot *)
    let db_size = Engine.db_size !oracle in
    let c = threshold + extra in
    if c > db_size then None
    else Some (float_of_int c /. float_of_int db_size)
  in
  List.iter
    (fun op ->
      if !ok then
        match op with
        | Q_items (x, e) -> (
          match frac e with
          | None -> ()
          | Some minsup ->
            if
              items ~containing:x session ~minsup
              <> Engine.itemsets ~containing:x !oracle ~minsup
            then fail "items")
        | Q_ids (x, e) -> (
          match frac e with
          | None -> ()
          | Some minsup ->
            let expected =
              Query.find_itemsets (Engine.lattice !oracle) ~containing:x
                ~minsup:(Engine.count_of_support !oracle minsup)
            in
            if Session.itemset_ids ~containing:x session ~minsup <> expected
            then fail "ids")
        | Q_count (x, e) -> (
          match frac e with
          | None -> ()
          | Some minsup ->
            if
              Session.count_itemsets ~containing:x session ~minsup
              <> Engine.count_itemsets ~containing:x !oracle ~minsup
            then fail "count")
        | Q_ess (x, e, minconf) -> (
          match frac e with
          | None -> ()
          | Some minsup ->
            if
              Session.essential_rules ~containing:x session ~minsup ~minconf
              <> Engine.essential_rules ~containing:x !oracle ~minsup ~minconf
            then fail "ess")
        | Q_all (x, e, minconf) -> (
          match frac e with
          | None -> ()
          | Some minsup ->
            if
              Session.all_rules ~containing:x session ~minsup ~minconf
              <> Engine.all_rules ~containing:x !oracle ~minsup ~minconf
            then fail "all")
        | Q_single (x, e, minconf) -> (
          match frac e with
          | None -> ()
          | Some minsup ->
            if
              Session.single_consequent_rules ~containing:x session ~minsup
                ~minconf
              <> Engine.single_consequent_rules ~containing:x !oracle ~minsup
                   ~minconf
            then fail "single")
        | Q_topk (x, k) ->
          if
            Session.support_for_k_itemsets session ~containing:x ~k
            <> Engine.support_for_k_itemsets !oracle ~containing:x ~k
          then fail "topk"
        | Q_topk_rules (x, minconf, k) ->
          if
            Session.support_for_k_rules session ~involving:x ~minconf ~k
            <> Engine.support_for_k_rules !oracle ~involving:x ~minconf ~k
          then fail "topk_rules"
        | Append delta ->
          let promoted_s = Session.append session delta in
          let oracle', promoted_o = Engine.append !oracle delta in
          oracle := oracle';
          if promoted_s <> promoted_o then fail "append")
    ops;
  !ok

let session_differential_prop =
  QCheck2.Test.make
    ~name:"session answers = cache-less engine (queries + appends)" ~count:250
    ~print:session_scenario_print session_scenario_gen
    (run_differential ~budget_bytes:(8 * 1024 * 1024))

(* Same oracle under a tiny budget: constant evictions and re-misses
   must not change any answer. *)
let session_tiny_budget_prop =
  QCheck2.Test.make ~name:"session under a 2 KiB budget stays exact" ~count:250
    ~print:session_scenario_print session_scenario_gen
    (run_differential ~budget_bytes:2048)

(* ------------------------------------------------------------------ *)
(* Pool differential: 4-domain pool vs serial session, digest-exact   *)

module Pool = Olar_serve.Pool
module Record = Olar_replay.Record
module Fnv = Olar_replay.Fnv

let req_print : Pool.request -> string = function
  | Find_itemsets { containing; minsup } ->
    Format.asprintf "find(%a,%g)" Itemset.pp containing minsup
  | Count_itemsets { containing; minsup } ->
    Format.asprintf "count(%a,%g)" Itemset.pp containing minsup
  | Essential_rules { containing; minsup; minconf; _ } ->
    Format.asprintf "ess(%a,%g,%g)" Itemset.pp containing minsup minconf
  | All_rules { containing; minsup; minconf; _ } ->
    Format.asprintf "all(%a,%g,%g)" Itemset.pp containing minsup minconf
  | Single_consequent_rules { containing; minsup; minconf } ->
    Format.asprintf "single(%a,%g,%g)" Itemset.pp containing minsup minconf
  | Support_for_k_itemsets { containing; k } ->
    Format.asprintf "topk(%a,%d)" Itemset.pp containing k
  | Support_for_k_rules { involving; minconf; k } ->
    Format.asprintf "topk_rules(%a,%g,%d)" Itemset.pp involving minconf k
  | Boundary { target; minconf; _ } ->
    Format.asprintf "boundary(%a,%g)" Itemset.pp target minconf
  | Append d -> Format.asprintf "append(%d txns)" (Database.size d)

(* One random pool request. Fractions are derived from the *initial*
   database size, so after appends some land below the primary
   threshold and raise — exercising the R_error path, which must digest
   identically on both sides. *)
let pool_request_gen ~num_items ~db_size ~threshold =
  let open QCheck2.Gen in
  let iset = Helpers.itemset_gen ~num_items in
  let minsup =
    let* extra = int_range 0 4 in
    return (float_of_int (threshold + extra) /. float_of_int db_size)
  in
  let conf = oneofl [ 0.3; 0.5; 0.75; 0.9; 1.0 ] in
  let kk = int_range 1 12 in
  let constraints =
    frequency
      [
        (3, return Boundary.unconstrained);
        ( 1,
          let* p = iset in
          let* q = iset in
          let* allow = bool in
          return
            {
              Boundary.antecedent_includes = p;
              consequent_includes = q;
              allow_empty_antecedent = allow;
            } );
      ]
  in
  frequency
    [
      ( 3,
        let* containing = iset in
        let* minsup = minsup in
        return (Pool.Find_itemsets { containing; minsup }) );
      ( 2,
        let* containing = iset in
        let* minsup = minsup in
        return (Pool.Count_itemsets { containing; minsup }) );
      ( 2,
        let* containing = iset in
        let* constraints = constraints in
        let* minsup = minsup in
        let* minconf = conf in
        return (Pool.Essential_rules { containing; constraints; minsup; minconf })
      );
      ( 1,
        let* containing = iset in
        let* constraints = constraints in
        let* minsup = minsup in
        let* minconf = conf in
        return (Pool.All_rules { containing; constraints; minsup; minconf }) );
      ( 1,
        let* containing = iset in
        let* minsup = minsup in
        let* minconf = conf in
        return (Pool.Single_consequent_rules { containing; minsup; minconf }) );
      ( 2,
        let* containing = iset in
        let* k = kk in
        return (Pool.Support_for_k_itemsets { containing; k }) );
      ( 1,
        let* involving = iset in
        let* minconf = conf in
        let* k = kk in
        return (Pool.Support_for_k_rules { involving; minconf; k }) );
      ( 1,
        let* target = iset in
        let* constraints = constraints in
        let* minconf = conf in
        return (Pool.Boundary { target; constraints; minconf }) );
      (1, map (fun d -> Pool.Append d) (delta_gen ~num_items));
    ]

let pool_scenario_gen_of n =
  let open QCheck2.Gen in
  let* db = Helpers.db_gen in
  let* threshold = int_range 1 3 in
  let* reqs =
    list_repeat n
      (pool_request_gen ~num_items:(Database.num_items db)
         ~db_size:(Database.size db) ~threshold)
  in
  return (db, threshold, reqs)

let pool_scenario_gen = pool_scenario_gen_of 500

let pool_scenario_print (db, threshold, reqs) =
  let appends =
    List.length (List.filter (function Pool.Append _ -> true | _ -> false) reqs)
  in
  Format.asprintf "%s@ threshold=%d %d reqs (%d appends), first 10: [%s]"
    (Helpers.db_print db) threshold (List.length reqs) appends
    (String.concat "; "
       (List.filteri (fun i _ -> i < 10) reqs |> List.map req_print))

(* The serial reference: the pool's per-request execution against a
   plain serial session — same materialization, same exception-to-R_error
   rule — so both sides digest through the replay layer's semantics.
   Deliberately an independent copy of [Pool.exec], not a call to it:
   the differentials compare [Pool.exec] against this. *)
let serial_execute session (req : Pool.request) : Pool.response =
  let materialize lat ids =
    Array.map (fun v -> (Lattice.itemset lat v, Lattice.support lat v)) ids
  in
  try
    match req with
    | Find_itemsets { containing; minsup } ->
      let ids = Session.itemset_ids ~containing session ~minsup in
      R_items (materialize (Engine.lattice (Session.engine session)) ids)
    | Count_itemsets { containing; minsup } ->
      R_count (Session.count_itemsets ~containing session ~minsup)
    | Essential_rules { containing; constraints; minsup; minconf } ->
      R_rules
        (Session.essential_rules ~containing ~constraints session ~minsup
           ~minconf)
    | All_rules { containing; constraints; minsup; minconf } ->
      R_rules
        (Session.all_rules ~containing ~constraints session ~minsup ~minconf)
    | Single_consequent_rules { containing; minsup; minconf } ->
      R_rules
        (Session.single_consequent_rules ~containing session ~minsup ~minconf)
    | Support_for_k_itemsets { containing; k } ->
      R_level (Session.support_for_k_itemsets session ~containing ~k)
    | Support_for_k_rules { involving; minconf; k } ->
      R_level (Session.support_for_k_rules session ~involving ~minconf ~k)
    | Boundary { target; constraints; minconf } ->
      R_entries (Session.boundary ~constraints session ~target ~minconf)
    | Append delta ->
      let promoted = Session.append session delta in
      R_promoted
        { promoted; db_size = Engine.db_size (Session.engine session) }
  with e -> Pool.R_error (Printexc.to_string e)

(* Errors carry no structured result; fold the message so an error
   response still has a comparable digest. *)
let digest_of_response (resp : Pool.response) =
  match Record.digest_response resp with
  | Some d -> d
  | None -> (
    match resp with
    | R_error msg -> Fnv.string Fnv.empty msg
    | _ -> assert false)

(* [Recorder.run] against the independent reference above, over all
   nine kinds plus a raising key, on twin cached sessions: the record
   each call emits must carry the reference response's digest and size,
   the cache path the reference session took, and the next sequence
   number; a raising key emits nothing and consumes no sequence
   number. *)
let test_recorder_matches_reference () =
  let module Record = Olar_replay.Record in
  let module Recorder = Olar_replay.Recorder in
  let session () =
    Session.create ~budget_bytes:(1 lsl 20)
      (Engine.of_lattice (Helpers.table2_lattice ()))
  in
  let reference = session () in
  let emitted = ref [] in
  let recorder =
    Recorder.create ~emit:(fun r -> emitted := r :: !emitted) (session ())
  in
  let f c = float_of_int c /. 1000.0 in
  let a = set [ 1 ] in
  let constraints =
    { Boundary.unconstrained with Boundary.consequent_includes = set [ 2 ] }
  in
  let keys =
    Record.
      [
        key ~minsup:(f 3) Find_itemsets;
        key ~minsup:(f 10) Find_itemsets (* a refine of the first *);
        key ~containing:a ~minsup:(f 4) Find_itemsets;
        key ~minsup:(f 1) Find_itemsets (* below the primary threshold *);
        key ~containing:a ~minsup:(f 4) Count_itemsets;
        key ~containing:a ~constraints ~minsup:(f 3) ~minconf:0.1 Essential_rules;
        key ~minsup:(f 3) ~minconf:0.2 All_rules;
        key ~minsup:(f 3) ~minconf:0.2 Single_consequent_rules;
        key ~containing:a ~k:2 Support_for_k_itemsets;
        key ~containing:a ~minconf:0.2 ~k:2 Support_for_k_rules;
        key ~containing:(set [ 0; 1; 2 ]) ~minconf:0.3 Boundary;
        key
          ~delta:(Database.of_lists ~num_items:6 [ [ 1; 2 ]; [ 1; 2; 3 ] ])
          Append;
        key ~containing:a ~minsup:(f 4) Find_itemsets;
      ]
  in
  let path_name = function
    | Session.Hit -> "hit"
    | Session.Refine -> "refine"
    | Session.Miss -> "miss"
    | Session.Passthrough -> "pass"
  in
  let seq = ref 0 in
  List.iter
    (fun (key : Record.t) ->
      let kind = Record.kind_to_string key.kind in
      let req = Result.get_ok (Record.to_request key) in
      let expected = serial_execute reference req in
      emitted := [];
      let raised =
        match Recorder.run recorder key with
        | _ -> false
        | exception _ -> true
      in
      match (Record.digest_response expected, !emitted) with
      | None, [] ->
        check Alcotest.bool (kind ^ ": raised like the reference") true raised;
        check Alcotest.int (kind ^ ": no seq consumed") !seq
          (Recorder.count recorder)
      | Some digest, [ r ] ->
        check Alcotest.string (kind ^ ": digest") (Fnv.to_hex digest)
          (Fnv.to_hex r.digest);
        check Alcotest.int (kind ^ ": size") (Record.result_size expected)
          r.result_size;
        check Alcotest.string (kind ^ ": cache path")
          (path_name (Session.last_path reference))
          (Record.cache_path_to_string r.cache);
        check Alcotest.int (kind ^ ": seq") !seq r.seq;
        incr seq
      | _, l ->
        Alcotest.failf "%s: reference %s, recorder emitted %d records" kind
          (if Option.is_some (Record.digest_response expected) then "answered"
           else "raised")
          (List.length l))
    keys;
  check Alcotest.int "every answered key numbered" 12 !seq

(* The same workload — queries with barriered appends — executed
   serially and through a 4-domain pool must produce bitwise-identical
   FNV digests at every position, each run at gen = appends so far. *)
let run_pool_differential ~budget_bytes (db, threshold, reqs) =
  let reqs = Array.of_list reqs in
  let lat = lattice_of db ~threshold in
  let serial = Session.create ~budget_bytes (Engine.of_lattice lat) in
  let expected =
    Array.map (fun r -> digest_of_response (serial_execute serial r)) reqs
  in
  let out =
    Pool.with_pool ~domains:4 ~budget_bytes (Engine.of_lattice lat)
      (fun pool -> Pool.run pool reqs)
  in
  let published = ref 0 in
  Array.for_all Fun.id
    (Array.mapi
       (fun i (resp, (c : Pool.completion)) ->
         (match (reqs.(i), resp) with
         | Pool.Append _, Pool.R_promoted _ -> incr published
         | _ -> ());
         expected.(i) = digest_of_response resp && c.gen = !published)
       out)

let pool_differential_prop =
  QCheck2.Test.make
    ~name:"pool(4 domains) digests = serial session (8 MiB cache)" ~count:10
    ~print:pool_scenario_print pool_scenario_gen
    (run_pool_differential ~budget_bytes:(8 * 1024 * 1024))

let pool_differential_uncached_prop =
  QCheck2.Test.make
    ~name:"pool(4 domains) digests = serial session (cache off)" ~count:10
    ~print:pool_scenario_print pool_scenario_gen
    (run_pool_differential ~budget_bytes:0)

(* The epoch oracle for streams where appends overlap reads. A serial
   pass folds the appends of [reqs] once, in order, snapshotting the
   (immutable) engine after each fold. [ok i resp g] then says whether
   the pooled response to [reqs.(i)], recorded at generation [g], is
   exact: an append must land on its own fold's generation with the
   serial digest; a read must digest equal to serial execution against
   generation [g]'s engine. [gen_before.(i)] is the generation the
   appends before position [i] publish — a read's lower bound when the
   same producer submitted them first. *)
let epoch_oracle ~budget_bytes lat reqs =
  let fold_session = Session.create ~budget_bytes:0 (Engine.of_lattice lat) in
  let engines = ref [ Session.engine fold_session ] in
  let append_digest = Hashtbl.create 8 in
  let append_gen = Hashtbl.create 8 in
  let gen_before = Array.make (Array.length reqs) 0 in
  let gens = ref 0 in
  Array.iteri
    (fun i req ->
      gen_before.(i) <- !gens;
      match req with
      | Pool.Append _ ->
        let resp = serial_execute fold_session req in
        Hashtbl.replace append_digest i (digest_of_response resp);
        (* a failing append (below-threshold delta) publishes nothing
           on either side: the generation advances only on success *)
        (match resp with
        | Pool.R_promoted _ ->
          incr gens;
          engines := Session.engine fold_session :: !engines
        | _ -> ());
        Hashtbl.replace append_gen i !gens
      | _ -> ())
    reqs;
  let engines = Array.of_list (List.rev !engines) in
  let sessions = Array.make (Array.length engines) None in
  let session_at g =
    match sessions.(g) with
    | Some s -> s
    | None ->
      let s = Session.create ~budget_bytes engines.(g) in
      sessions.(g) <- Some s;
      s
  in
  let ok i resp g =
    match reqs.(i) with
    | Pool.Append _ ->
      digest_of_response resp = Hashtbl.find append_digest i
      && g = Hashtbl.find append_gen i
    | req ->
      g >= 0
      && g < Array.length engines
      && digest_of_response resp
         = digest_of_response (serial_execute (session_at g) req)
  in
  (ok, gen_before)

(* The same differential through the continuous path, now epoch-aware:
   every request is [Pool.submit]ted with no drain in between, and an
   [Append] publishes a new snapshot without quiescing — so a read
   submitted before an append may legitimately execute on either side
   of it. Each response is checked by the epoch oracle at the
   generation its completion recorded, and that generation must be at
   least the number of appends submitted before it — the
   publish-before-push ordering the pool guarantees. *)
let run_pool_stream_differential ~budget_bytes (db, threshold, reqs) =
  let reqs = Array.of_list reqs in
  let lat = lattice_of db ~threshold in
  let ok, gen_before = epoch_oracle ~budget_bytes lat reqs in
  (* pooled pass: stream everything, no drains, appends fully live *)
  let out = Array.make (Array.length reqs) (Pool.R_error "unserved", -1) in
  Pool.with_pool ~domains:4 ~budget_bytes (Engine.of_lattice lat)
    (fun pool ->
      Array.iteri
        (fun i req ->
          Pool.submit pool req (fun resp c -> out.(i) <- (resp, c.Pool.gen)))
        reqs;
      Pool.drain pool);
  let good = ref true in
  Array.iteri
    (fun i (resp, g) ->
      if not (ok i resp g && g >= gen_before.(i)) then good := false)
    out;
  !good

let pool_stream_differential_prop =
  QCheck2.Test.make
    ~name:
      "live-append submit digests = serial at recorded gen (8 MiB cache)"
    ~count:10 ~print:pool_scenario_print pool_scenario_gen
    (run_pool_stream_differential ~budget_bytes:(8 * 1024 * 1024))

let pool_stream_differential_uncached_prop =
  QCheck2.Test.make
    ~name:"live-append submit digests = serial at recorded gen (cache off)"
    ~count:10 ~print:pool_scenario_print pool_scenario_gen
    (run_pool_stream_differential ~budget_bytes:0)

(* Run [f], but end the whole test run, rather than stall it, if [f]
   has not returned within [s] seconds — a lost request hangs [drain]. *)
let within s what f =
  let finished = Atomic.make false in
  let deadline = Unix.gettimeofday () +. s in
  ignore
    (Thread.create
       (fun () ->
         while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
           Thread.delay 0.05
         done;
         if not (Atomic.get finished) then begin
           Printf.eprintf "%s: no progress in %.0fs\n%!" what s;
           Unix._exit 2
         end)
       ());
  Fun.protect ~finally:(fun () -> Atomic.set finished true) f

(* Concurrent producers: three systhreads and one extra domain submit
   at once, with every [Append] on producer 0 so the fold order — and
   hence each generation — is still deterministic. Every callback must
   fire exactly once, every response must pass the epoch oracle at its
   recorded generation (producer 0's reads also at or after the appends
   it submitted first), and the retired snapshots must reclaim to zero
   once the stream drains. Without the pool's intake lock two producers
   can claim the same ring cell, losing a request, which the watchdog
   turns into a failure. *)
let run_pool_concurrent_producers ~budget_bytes (db, threshold, reqs) =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let lat = lattice_of db ~threshold in
  let ok, gen_before = epoch_oracle ~budget_bytes lat reqs in
  let producers = 4 in
  let owner i = match reqs.(i) with Pool.Append _ -> 0 | _ -> i mod producers in
  let calls = Array.init n (fun _ -> Atomic.make 0) in
  let out = Array.make n (Pool.R_error "unserved", -1) in
  let reclaimed =
    within 60.0 "concurrent producers" @@ fun () ->
    Pool.with_pool ~domains:3 ~budget_bytes (Engine.of_lattice lat)
      (fun pool ->
        let produce p () =
          Array.iteri
            (fun i req ->
              if owner i = p then
                Pool.submit pool req (fun resp c ->
                    Atomic.incr calls.(i);
                    out.(i) <- (resp, c.Pool.gen)))
            reqs
        in
        let threads =
          List.init (producers - 1) (fun p -> Thread.create (produce p) ())
        in
        let dom = Domain.spawn (produce (producers - 1)) in
        List.iter Thread.join threads;
        Domain.join dom;
        Pool.drain pool;
        (* workers adopt at their next claim or just before parking *)
        let rec wait k =
          Pool.retired_snapshots pool = 0
          || (k > 0 && (Unix.sleepf 0.01; wait (k - 1)))
        in
        wait 500)
  in
  let good = ref reclaimed in
  Array.iteri
    (fun i (resp, g) ->
      if
        Atomic.get calls.(i) <> 1
        || not (ok i resp g)
        || (owner i = 0 && g < gen_before.(i))
      then good := false)
    out;
  !good

let pool_concurrent_producers_prop =
  QCheck2.Test.make
    ~name:"concurrent producers: exactly-once, digests = serial at gen"
    ~count:10 ~print:pool_scenario_print (pool_scenario_gen_of 3000)
    (run_pool_concurrent_producers ~budget_bytes:(8 * 1024 * 1024))

(* ------------------------------------------------------------------ *)
(* Pool units *)

let test_pool_create_validation () =
  let engine = Engine.of_lattice (Helpers.table2_lattice ()) in
  Alcotest.check_raises "zero domains rejected"
    (Invalid_argument "Pool.create: domains must be >= 1") (fun () ->
      ignore (Pool.create ~domains:0 engine))

(* A tracer-carrying engine is accepted since the tracer went sharded:
   each worker domain buffers into its own shard, the coordinator merges
   on flush, and every merged span says which domain produced it. *)
let test_pool_traced_spans () =
  let sink, spans = Olar_obs.Sink.memory () in
  let traced =
    Engine.of_lattice
      ~obs:(Olar_obs.Obs.create ~trace:sink ())
      (Helpers.table2_lattice ())
  in
  let reqs =
    Array.init 8 (fun i ->
        Pool.Count_itemsets
          { containing = Itemset.empty; minsup = float_of_int (3 + i) /. 1000.0 })
  in
  (* budget 0: no cache hits, so every query executes under the
     engine's query span and leaves a span *)
  let out =
    Pool.with_pool ~domains:3 ~budget_bytes:0 traced (fun pool ->
        Array.map fst (Pool.run pool reqs))
  in
  check Alcotest.int "all requests answered" 8 (Array.length out);
  (match out.(0) with
  | Pool.R_count 9 -> ()
  | _ -> Alcotest.fail "traced pool miscounted Table 2");
  Olar_obs.Obs.flush_opt (Engine.obs traced);
  let emitted = spans () in
  check Alcotest.bool "queries traced" true (List.length emitted >= 8);
  let module T = Olar_obs.Trace in
  let ids = List.map (fun s -> s.T.id) emitted in
  check Alcotest.int "span ids unique across domains" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun s ->
      (match List.assoc_opt "domain" s.T.attrs with
      | Some (T.Int d) ->
        check Alcotest.bool
          (Printf.sprintf "span %s domain id sane" s.T.name)
          true (d >= 0)
      | _ -> Alcotest.failf "span %s lacks a domain tag" s.T.name);
      (* parentage survives the merge: every parent id is emitted too *)
      match s.T.parent with
      | None -> ()
      | Some p ->
        check Alcotest.bool
          (Printf.sprintf "span %s parent resolves" s.T.name)
          true (List.mem p ids))
    emitted

let test_pool_shutdown_idempotent () =
  let engine = Engine.of_lattice (Helpers.table2_lattice ()) in
  let pool = Pool.create ~domains:2 engine in
  check Alcotest.int "width" 2 (Pool.domains pool);
  let out =
    Pool.run pool
      [|
        Pool.Count_itemsets
          { containing = Itemset.empty; minsup = 3.0 /. 1000.0 };
      |]
  in
  (match out.(0) with
  | Pool.R_count 9, _ -> ()
  | _ -> Alcotest.fail "expected R_count 9");
  Pool.shutdown pool;
  Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool is shut down") (fun () ->
      ignore (Pool.run pool [||]))

(* Submission-order pin: [run] answers [reqs.(i)] at index [i],
   whatever domain executed what. Distinct minsup cuts over Table 2
   have distinct counts, so a misrouted response cannot go
   unnoticed. *)
let table2_counts_by_cut =
  (* supports 10,20,30,10,4,7,6,4,3 → entries at count cut c *)
  [| (3, 9); (4, 8); (5, 6); (7, 5); (10, 4); (20, 2); (30, 1) |]

let count_requests () =
  Array.map
    (fun (c, _) ->
      Pool.Count_itemsets
        { containing = Itemset.empty; minsup = float_of_int c /. 1000.0 })
    table2_counts_by_cut

let check_submission_order out =
  Array.iteri
    (fun i (c, expected) ->
      match out.(i) with
      | Pool.R_count got ->
        check Alcotest.int
          (Printf.sprintf "out.(%d) answers the cut-%d request" i c)
          expected got
      | _ -> Alcotest.fail "expected R_count")
    table2_counts_by_cut

let test_pool_submission_order () =
  let engine = Engine.of_lattice (Helpers.table2_lattice ()) in
  Pool.with_pool ~domains:4 engine (fun pool ->
      check_submission_order
        (Array.map fst (Pool.run pool (count_requests ()))))

(* [submit] fires each callback exactly once with that request's
   response — possibly out of submission order, on any domain, which is
   the point — and a raising callback surfaces at the next [drain]
   without losing any delivery. *)
let test_pool_submit_delivers_once () =
  let engine = Engine.of_lattice (Helpers.table2_lattice ()) in
  Pool.with_pool ~domains:4 engine (fun pool ->
      let reqs = count_requests () in
      let n = Array.length reqs in
      let delivered = Array.make n (Pool.R_error "undelivered") in
      let calls = Array.init n (fun _ -> Atomic.make 0) in
      Array.iteri
        (fun i req ->
          Pool.submit pool req (fun resp _ ->
              Atomic.incr calls.(i);
              delivered.(i) <- resp))
        reqs;
      Pool.drain pool;
      check_submission_order delivered;
      Array.iteri
        (fun i c ->
          check Alcotest.int
            (Printf.sprintf "index %d delivered once" i)
            1 (Atomic.get c))
        calls;
      (* a raising callback: every request still delivers, and the
         exception is re-raised by the drain *)
      let seen = Atomic.make 0 in
      Array.iter
        (fun req ->
          Pool.submit pool req (fun _ _ ->
              Atomic.incr seen;
              failwith "callback boom"))
        reqs;
      match Pool.drain pool with
      | () -> Alcotest.fail "callback exception must propagate"
      | exception Failure msg ->
        check Alcotest.string "the callback's exception" "callback boom" msg;
        check Alcotest.int "every request still delivered" n (Atomic.get seen))

(* Snapshot bookkeeping: each successful [Append] publishes the next
   generation, its completion records that generation, and once the
   stream drains every slot has adopted the newest snapshot — so the
   retired list reclaims down to empty (workers adopt at next claim or
   just before parking, so give the idle path a beat). *)
let test_pool_generation_reclaim () =
  let engine = Engine.of_lattice (Helpers.table2_lattice ()) in
  Pool.with_pool ~domains:3 engine (fun pool ->
      check Alcotest.int "fresh pool is generation 0" 0 (Pool.generation pool);
      let delta = Database.of_lists ~num_items:6 [ [ 1; 2; 3 ]; [ 1; 2 ] ] in
      let gens = ref [] in
      for _round = 1 to 3 do
        Array.iter
          (fun req -> Pool.submit pool req (fun _ _ -> ()))
          (count_requests ());
        (* appends run inline on the coordinator, so the callback's
           mutation of [gens] is unsynchronized on purpose *)
        Pool.submit pool
          (Pool.Append delta)
          (fun resp c ->
            (match resp with
            | Pool.R_promoted _ -> ()
            | _ -> Alcotest.fail "append must promote");
            gens := c.Pool.gen :: !gens)
      done;
      Pool.drain pool;
      check
        (Alcotest.list Alcotest.int)
        "each append publishes the next generation" [ 3; 2; 1 ] !gens;
      check Alcotest.int "published generation" 3 (Pool.generation pool);
      let rec wait n =
        if Pool.retired_snapshots pool = 0 then ()
        else if n = 0 then
          Alcotest.failf "retired snapshots never reclaimed (%d left)"
            (Pool.retired_snapshots pool)
        else begin
          Unix.sleepf 0.01;
          wait (n - 1)
        end
      in
      wait 500)

(* An append publishes a lattice that shares the previous snapshot's
   unchanged CSR buffers: only supports and child rows move. A fold
   that went back to rebuilding the whole lattice would copy them. *)
let test_pool_append_shares_buffers () =
  let engine = Engine.of_lattice (Helpers.table2_lattice ()) in
  Pool.with_pool ~domains:2 engine (fun pool ->
      let before = Engine.lattice (Pool.engine pool) in
      let delta = Database.of_lists ~num_items:4 [ [ 0; 1; 2 ]; [ 1; 3 ] ] in
      (match Pool.run pool [| Pool.Append delta |] with
      | [| (Pool.R_promoted _, _) |] -> ()
      | _ -> Alcotest.fail "append must promote");
      check Alcotest.int "published" 1 (Pool.generation pool);
      let after = Engine.lattice (Pool.engine pool) in
      check Alcotest.int "db grew" 1002 (Lattice.db_size after);
      check Alcotest.bool "supports are new" true
        (Lattice.support_array after != Lattice.support_array before);
      check Alcotest.bool "item buffer shared" true
        (Lattice.item_buffer after == Lattice.item_buffer before);
      check Alcotest.bool "parent edges shared" true
        (Lattice.parent_edges after == Lattice.parent_edges before);
      check Alcotest.bool "child offsets shared" true
        (Lattice.child_offsets after == Lattice.child_offsets before))

(* ------------------------------------------------------------------ *)
(* Units *)

let table2_session ?budget_bytes () =
  let engine = Engine.of_lattice (Helpers.table2_lattice ()) in
  (Session.create ?budget_bytes engine, engine)

(* db_size 1000: minsup count c as a fraction *)
let f c = float_of_int c /. 1000.0

(* Low cut populates; a higher cut is served as a prefix refinement with
   identical results; an equal cut is a verbatim hit. *)
let test_refinement_accounting () =
  let session, engine = table2_session () in
  let broad = items session ~minsup:(f 3) in
  check Alcotest.int "broad answer is the whole lattice" 9 (List.length broad);
  let stats = Session.stats session in
  check Alcotest.int "one miss" 1 stats.Session.misses;
  check Alcotest.int "no hits yet" 0 stats.Session.hits;
  let narrow = items session ~minsup:(f 10) in
  check Alcotest.bool "refined = engine" true
    (narrow = Engine.itemsets engine ~minsup:(f 10));
  let verbatim = items session ~minsup:(f 3) in
  check Alcotest.bool "verbatim = first answer" true (verbatim = broad);
  let stats = Session.stats session in
  check Alcotest.int "two hits" 2 stats.Session.hits;
  check Alcotest.int "one refine" 1 stats.Session.refines;
  check Alcotest.int "still one miss" 1 stats.Session.misses

(* [last_path] reflects how the most recent call was served — the
   recorder reads it right after each query, so the classification must
   be exact on every branch. *)
let test_last_path () =
  let path =
    Alcotest.testable
      (fun ppf p ->
        Format.pp_print_string ppf
          (match p with
          | Session.Hit -> "hit"
          | Session.Refine -> "refine"
          | Session.Miss -> "miss"
          | Session.Passthrough -> "pass"))
      ( = )
  in
  let session, _engine = table2_session () in
  ignore (items session ~minsup:(f 3));
  check path "cold query misses" Session.Miss (Session.last_path session);
  ignore (items session ~minsup:(f 10));
  check path "higher cut refines" Session.Refine (Session.last_path session);
  ignore (items session ~minsup:(f 3));
  check path "verbatim hit" Session.Hit (Session.last_path session);
  ignore (Session.boundary session ~target:(set [ 1 ]) ~minconf:0.5);
  check path "boundary bypasses the cache" Session.Passthrough
    (Session.last_path session);
  ignore (items session ~minsup:(f 3));
  ignore
    (Session.append session
       (Database.of_lists ~num_items:6 [ [ 1; 2 ]; [ 1; 3 ] ]));
  check path "append is maintenance, not a query" Session.Passthrough
    (Session.last_path session);
  let disabled, _ = table2_session ~budget_bytes:0 () in
  ignore (items disabled ~minsup:(f 3));
  check path "disabled session passes through" Session.Passthrough
    (Session.last_path disabled)

(* A query below the cached floor recomputes and widens the entry; the
   old floor is then served as a prefix of the widened one. *)
let test_floor_widening () =
  let session, engine = table2_session () in
  ignore (items session ~minsup:(f 10));
  ignore (items session ~minsup:(f 3));
  let stats = Session.stats session in
  check Alcotest.int "second query re-misses below the floor" 2
    stats.Session.misses;
  check Alcotest.bool "widened entry serves the old cut" true
    (items session ~minsup:(f 10)
    = Engine.itemsets engine ~minsup:(f 10));
  let stats = Session.stats session in
  check Alcotest.int "served as refine" 1 stats.Session.refines

let test_count_uses_prefix () =
  let session, engine = table2_session () in
  ignore (items session ~minsup:(f 3));
  check Alcotest.int "count from the cached prefix"
    (Engine.count_itemsets engine ~minsup:(f 7))
    (Session.count_itemsets session ~minsup:(f 7));
  let stats = Session.stats session in
  check Alcotest.int "count was a hit" 1 stats.Session.hits

(* Rule lists are cached under their exact key and shared physically. *)
let test_rules_exact_key () =
  let session, _ = table2_session () in
  let r1 = Session.essential_rules session ~minsup:(f 3) ~minconf:0.3 in
  let r2 = Session.essential_rules session ~minsup:(f 3) ~minconf:0.3 in
  check Alcotest.bool "second call returns the cached list" true (r1 == r2);
  let r3 = Session.essential_rules session ~minsup:(f 3) ~minconf:0.5 in
  check Alcotest.bool "different minconf is a different key" true (r3 != r1);
  let stats = Session.stats session in
  check Alcotest.int "one hit, two misses" 1 stats.Session.hits;
  check Alcotest.int "two rule entries + nothing else" 2 stats.Session.misses

(* Top-k subsumption: a cached k-run answers every k' <= k, and an
   exhausted run answers every k' without recomputing. *)
let test_topk_subsumption () =
  let session, engine = table2_session () in
  let containing = set [ 1 ] in
  let at k = Engine.support_for_k_itemsets engine ~containing ~k in
  check Alcotest.bool "k=4 primes" true
    (Session.support_for_k_itemsets session ~containing ~k:4 = at 4);
  check Alcotest.bool "k=2 subsumed" true
    (Session.support_for_k_itemsets session ~containing ~k:2 = at 2);
  check Alcotest.bool "k=1 subsumed" true
    (Session.support_for_k_itemsets session ~containing ~k:1 = at 1);
  let stats = Session.stats session in
  check Alcotest.int "one miss, two hits" 1 stats.Session.misses;
  check Alcotest.int "both subsumed hits are refines" 2 stats.Session.refines;
  (* only 5 itemsets contain item 1: k=9 exhausts, then any k' answers *)
  check Alcotest.bool "k=9 exhausts" true
    (Session.support_for_k_itemsets session ~containing ~k:9 = at 9);
  check Alcotest.bool "k=7 from the exhausted run" true
    (Session.support_for_k_itemsets session ~containing ~k:7 = at 7);
  check Alcotest.bool "k=3 from the exhausted run" true
    (Session.support_for_k_itemsets session ~containing ~k:3 = at 3);
  let stats = Session.stats session in
  check Alcotest.int "exhausting run was the second miss" 2
    stats.Session.misses

let test_topk_rules_subsumption () =
  let session, engine = table2_session () in
  let involving = Itemset.empty in
  let at k = Engine.support_for_k_rules engine ~involving ~minconf:0.3 ~k in
  check Alcotest.bool "k=6 primes" true
    (Session.support_for_k_rules session ~involving ~minconf:0.3 ~k:6 = at 6);
  check Alcotest.bool "k=3 subsumed" true
    (Session.support_for_k_rules session ~involving ~minconf:0.3 ~k:3 = at 3);
  check Alcotest.bool "k=1 subsumed" true
    (Session.support_for_k_rules session ~involving ~minconf:0.3 ~k:1 = at 1);
  let stats = Session.stats session in
  check Alcotest.int "one miss for the family" 1 stats.Session.misses

(* Eviction keeps the resident estimate within budget and counts. *)
let test_lru_eviction () =
  let session, engine = table2_session ~budget_bytes:700 () in
  List.iter
    (fun i -> ignore (items ~containing:(set [ i ]) session ~minsup:(f 3)))
    [ 0; 1; 2; 3; 0; 1 ];
  let stats = Session.stats session in
  check Alcotest.bool "evictions happened" true (stats.Session.evictions > 0);
  check Alcotest.bool "resident <= budget" true
    (stats.Session.resident_bytes <= stats.Session.budget_bytes);
  (* correctness is unaffected by churn *)
  check Alcotest.bool "answers still exact" true
    (items ~containing:(set [ 2 ]) session ~minsup:(f 3)
    = Engine.itemsets ~containing:(set [ 2 ]) engine ~minsup:(f 3))

(* After append the engine epoch changes: the old entry is dropped at
   lookup, never served. *)
let test_epoch_invalidation () =
  let db = Helpers.small_db () in
  let lat = lattice_of db ~threshold:2 in
  let session = Session.create (Engine.of_lattice lat) in
  let before = items session ~minsup:(2.0 /. 10.0) in
  let delta = Database.of_lists ~num_items:5 [ [ 0; 1 ]; [ 0; 1 ]; [ 0; 1 ] ] in
  let _promoted = Session.append session delta in
  let oracle, _ = Engine.append (Engine.of_lattice lat) delta in
  let minsup = 2.0 /. float_of_int (Engine.db_size oracle) in
  let after = items session ~minsup in
  check Alcotest.bool "post-append answer matches a fresh engine" true
    (after = Engine.itemsets oracle ~minsup);
  check Alcotest.bool "supports actually moved" true (after <> before);
  let stats = Session.stats session in
  check Alcotest.int "stale entry was not served" 2 stats.Session.misses;
  check Alcotest.int "no hits across the epoch" 0 stats.Session.hits

let test_flush () =
  let session, _ = table2_session () in
  ignore (items session ~minsup:(f 3));
  ignore (Session.essential_rules session ~minsup:(f 3) ~minconf:0.5);
  let stats = Session.stats session in
  check Alcotest.int "two entries cached" 2 stats.Session.entries;
  Session.flush session;
  let stats = Session.stats session in
  check Alcotest.int "flush empties the table" 0 stats.Session.entries;
  check Alcotest.int "flush zeroes residency" 0 stats.Session.resident_bytes;
  ignore (items session ~minsup:(f 3));
  check Alcotest.int "next query re-misses" 3 (Session.stats session).Session.misses

let test_disabled_passthrough () =
  let session, engine = table2_session ~budget_bytes:0 () in
  check Alcotest.bool "disabled" false (Session.enabled session);
  check Alcotest.bool "still answers" true
    (items session ~minsup:(f 4) = Engine.itemsets engine ~minsup:(f 4));
  let stats = Session.stats session in
  check Alcotest.int "no accounting" 0 (stats.Session.hits + stats.Session.misses);
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Session.create: budget_bytes") (fun () ->
      ignore (Session.create ~budget_bytes:(-1) engine))

(* The disabled session adds nothing to the engine's allocation profile
   — the acceptance criterion for leaving the cache off. Measured in
   minor words, not [Gc.allocated_bytes]: the latter also counts runtime
   stack-chunk growth, which fires spuriously when the session's extra
   frames straddle a stack-chunk boundary (a function of the harness's
   call depth, not of this code). Any real per-query regression here —
   re-boxing an optional argument, building a closure — lands on the
   minor heap. *)
let test_disabled_zero_alloc () =
  let lat = Helpers.table2_lattice () in
  let engine = Engine.of_lattice lat in
  let session = Session.create ~budget_bytes:0 engine in
  let frac = 4.0 /. float_of_int (Lattice.db_size lat) in
  let engine_query () = ignore (Engine.count_itemsets engine ~minsup:frac) in
  let session_query () = ignore (Session.count_itemsets session ~minsup:frac) in
  let measure f =
    f ();
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      f ()
    done;
    8.0 *. (Gc.minor_words () -. before)
  in
  let engine_bytes = measure engine_query in
  let session_bytes = measure session_query in
  if session_bytes > engine_bytes +. 512.0 then
    Alcotest.failf
      "disabled session allocated %.0f bytes over 1000 queries vs %.0f direct"
      session_bytes engine_bytes

(* Every read kind at budgets 0 and 1 MiB, with valid requests and with
   k = 0, minconf = 0 and minsup below the primary threshold. Both
   budgets must give the same answer or the same exception text, and
   telemetry must depend only on whether a query executed: a miss or
   passthrough adds one [olar_queries_total] and one observation to its
   kind's [olar_query_<kind>_seconds]; a hit, a refine or a rejected
   request adds neither. *)
let test_budget_parity () =
  let a = set [ 1 ] in
  let empty = Itemset.empty in
  let unconstrained = Boundary.unconstrained in
  let constraints = { unconstrained with Boundary.consequent_includes = set [ 2 ] } in
  let reqs =
    Pool.
      [
        Find_itemsets { containing = empty; minsup = f 3 };
        Find_itemsets { containing = empty; minsup = f 10 };
        Find_itemsets { containing = empty; minsup = f 3 };
        Find_itemsets { containing = empty; minsup = f 1 };
        Count_itemsets { containing = a; minsup = f 4 };
        Count_itemsets { containing = a; minsup = f 5 };
        Count_itemsets { containing = a; minsup = f 1 };
        Essential_rules { containing = a; constraints; minsup = f 3; minconf = 0.1 };
        Essential_rules { containing = a; constraints; minsup = f 3; minconf = 0.1 };
        Essential_rules { containing = a; constraints; minsup = f 3; minconf = 0.0 };
        Essential_rules { containing = a; constraints; minsup = f 1; minconf = 0.1 };
        All_rules { containing = empty; constraints = unconstrained; minsup = f 3; minconf = 0.2 };
        All_rules { containing = empty; constraints = unconstrained; minsup = f 3; minconf = 0.0 };
        Single_consequent_rules { containing = empty; minsup = f 3; minconf = 0.2 };
        Single_consequent_rules { containing = empty; minsup = f 1; minconf = 0.2 };
        Support_for_k_itemsets { containing = a; k = 2 };
        Support_for_k_itemsets { containing = a; k = 1 };
        Support_for_k_itemsets { containing = a; k = 0 };
        Support_for_k_rules { involving = a; minconf = 0.2; k = 2 };
        Support_for_k_rules { involving = a; minconf = 0.2; k = 1 };
        Support_for_k_rules { involving = a; minconf = 0.2; k = 0 };
        Support_for_k_rules { involving = a; minconf = 0.0; k = 2 };
        Boundary { target = set [ 0; 1; 2 ]; constraints = unconstrained; minconf = 0.3 };
        Boundary { target = set [ 0; 1; 2 ]; constraints = unconstrained; minconf = 0.0 };
        Boundary { target = set [ 99 ]; constraints = unconstrained; minconf = 0.3 };
      ]
  in
  let kind ~budget_bytes = function
    | Pool.Find_itemsets _ -> "itemsets"
    | Count_itemsets _ -> if budget_bytes = 0 then "count_itemsets" else "itemsets"
    | Essential_rules _ -> "essential_rules"
    | All_rules _ -> "all_rules"
    | Single_consequent_rules _ -> "single_consequent_rules"
    | Support_for_k_itemsets _ -> "support_for_k_itemsets"
    | Support_for_k_rules _ -> "support_for_k_rules"
    | Boundary _ -> "boundary"
    | Append _ -> assert false
  in
  let run ~budget_bytes =
    let obs = Olar_obs.Obs.create () in
    let registry = Olar_obs.Obs.metrics (Option.get obs) in
    let session =
      Session.create ~budget_bytes
        (Engine.of_lattice ~obs (Helpers.table2_lattice ()))
    in
    let module M = Olar_obs.Metrics in
    let queries () =
      match M.find registry "olar_queries_total" with
      | Some { M.metric = M.M_counter c; _ } -> M.Counter.value c
      | _ -> 0
    in
    let observations name =
      match M.find registry ("olar_query_" ^ name ^ "_seconds") with
      | Some { M.metric = M.M_histogram h; _ } -> M.Histogram.count h
      | _ -> 0
    in
    let all_observations () =
      List.fold_left
        (fun acc (e : M.entry) ->
          match e.M.metric with
          | M.M_histogram h
            when String.starts_with ~prefix:"olar_query_" e.M.name
                 && String.ends_with ~suffix:"_seconds" e.M.name ->
            acc + M.Histogram.count h
          | _ -> acc)
        0 (M.to_list registry)
    in
    let outcomes =
      List.map
      (fun req ->
        let label = req_print req in
        let name = kind ~budget_bytes req in
        let q0 = queries () and h0 = observations name in
        let all0 = all_observations () in
        let outcome =
          match Pool.exec session req with
          | resp -> Ok resp
          | exception e -> Error (Printexc.to_string e)
        in
        let executed =
          match (outcome, Session.last_path session) with
          | Error _, _ | Ok _, (Session.Hit | Session.Refine) -> 0
          | Ok _, (Session.Miss | Session.Passthrough) -> 1
        in
        check Alcotest.int (label ^ ": olar_queries_total") executed (queries () - q0);
        check Alcotest.int (label ^ ": olar_query_" ^ name ^ "_seconds") executed
          (observations name - h0);
        check Alcotest.int (label ^ ": query histograms") executed
          (all_observations () - all0);
        (label, outcome))
      reqs
    in
    (outcomes, Session.stats session)
  in
  let uncached, _ = run ~budget_bytes:0 in
  let cached, stats = run ~budget_bytes:(1 lsl 20) in
  check Alcotest.bool "the cached run hit and refined" true
    (stats.Session.hits > 0 && stats.Session.refines > 0);
  List.iter2
    (fun (label, a) (_, b) ->
      match (a, b) with
      | Ok a, Ok b -> check Alcotest.bool (label ^ ": same answer") true (a = b)
      | Error a, Error b -> check Alcotest.string (label ^ ": same exception") a b
      | Ok _, Error e | Error e, Ok _ ->
        Alcotest.failf "%s: one budget raised %s, the other answered" label e)
    uncached cached;
  check Alcotest.int "every invalid request rejected" 10
    (List.length (List.filter (fun (_, o) -> Result.is_error o) cached))

let case name fn = Alcotest.test_case name `Quick fn

let suites =
  [
    ( "serve.session",
      [
        case "refinement accounting" test_refinement_accounting;
        case "last path classification" test_last_path;
        case "floor widening" test_floor_widening;
        case "count via cached prefix" test_count_uses_prefix;
        case "rules exact-key sharing" test_rules_exact_key;
        case "top-k subsumption" test_topk_subsumption;
        case "top-k rules subsumption" test_topk_rules_subsumption;
        case "lru eviction under budget" test_lru_eviction;
        case "epoch invalidation on append" test_epoch_invalidation;
        case "flush" test_flush;
        case "disabled passthrough" test_disabled_passthrough;
        case "disabled session allocates nothing" test_disabled_zero_alloc;
        case "every read kind: budget 0 and 1 MiB agree" test_budget_parity;
      ] );
    Helpers.qsuite "serve.order"
      [ canonical_order_prop; prefix_property_prop ];
    Helpers.qsuite "serve.diff"
      [ session_differential_prop; session_tiny_budget_prop ];
    ( "serve.pool",
      [
        case "create validation" test_pool_create_validation;
        case "traced pool tags spans by domain" test_pool_traced_spans;
        case "shutdown idempotent" test_pool_shutdown_idempotent;
        case "responses land in submission order" test_pool_submission_order;
        case "submit delivers each result exactly once"
          test_pool_submit_delivers_once;
        case "generations publish and retired snapshots reclaim"
          test_pool_generation_reclaim;
        case "recorder run = serial reference, every kind"
          test_recorder_matches_reference;
        case "append shares the unchanged CSR buffers"
          test_pool_append_shares_buffers;
      ] );
    Helpers.qsuite "serve.pool.diff"
      [
        pool_differential_prop;
        pool_differential_uncached_prop;
        pool_stream_differential_prop;
        pool_stream_differential_uncached_prop;
        pool_concurrent_producers_prop;
      ];
  ]
