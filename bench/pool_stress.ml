(* Pool-vs-serial stress check (the @stress alias).

   Generates a deterministic database and a deterministic mixed request
   workload — every query family with appends interleaved — then
   executes it once serially (a 1-domain pool, i.e. a plain sequential
   Session walk) and [--repeat] times through an N-domain pool, at
   cache budgets 0 and 8 MiB.

   Two comparison regimes:

   - Batch passes go through [Pool.run], which drains before each
     append, so every run must produce the bitwise-identical sequence
     of FNV-1a result digests in submission order.

   - Stream passes push the whole workload through raw [Pool.submit]
     with no drains, so appends publish new snapshots while reads are
     in flight and a read may legitimately execute on either side of a
     concurrent append. The oracle is epoch-aware: each response's
     completion records the generation it executed at, and its digest
     must be bitwise-equal to a serial execution against that exact
     generation's engine — with the recorded generation bounded below
     by the appends submitted before it. A second, denser workload
     (an append every ~20 requests) keeps several snapshots live at
     once; the retired list must still reclaim to zero after drain.

   Any divergence is a real data race or ordering bug, not noise. *)

open Olar_data
module Engine = Olar_core.Engine
module Lattice = Olar_core.Lattice
module Pool = Olar_serve.Pool
module Session = Olar_serve.Session
module Record = Olar_replay.Record
module Fnv = Olar_replay.Fnv

let num_queries = 400
let primary_support = 0.01

let params =
  Olar_datagen.Params.make
    ~over:
      {
        Olar_datagen.Params.default with
        num_items = 120;
        num_potential = 200;
        seed = 7;
      }
    ~avg_transaction_size:8.0 ~avg_itemset_size:3.0 ~num_transactions:2000 ()

(* Each run gets a fresh engine (appends rebuild the lattice) with its
   own obs context, exercising the shared atomic metric cells. *)
let build_engine db =
  Engine.at_threshold ~obs:(Olar_obs.Obs.create ()) db ~primary_support

(* Deterministic request mix over live lattice regions; same shape as
   the replay smoke workload but expressed as by-value pool requests.
   [append_every] sets the append cadence: 100 for the classic mix, ~20
   for the concurrent-append stream passes. *)
let build_workload ?(append_every = 100) db =
  let engine = build_engine db in
  let lat = Engine.lattice engine in
  let singletons = ref [] in
  let deepest = ref Itemset.empty in
  for v = 0 to Lattice.num_vertices lat - 1 do
    let x = Lattice.itemset lat v in
    if Itemset.cardinal x = 1 then singletons := x :: !singletons;
    if Itemset.cardinal x > Itemset.cardinal !deepest then deepest := x
  done;
  let singletons = Array.of_list (List.rev !singletons) in
  if Array.length singletons = 0 then failwith "no frequent singletons";
  let deepest = !deepest in
  let p = Engine.primary_threshold engine in
  let levels = [| p; p *. 1.5; p *. 2.5; p *. 4.0 |] in
  let confs = [| 0.2; 0.5; 0.8 |] in
  let rng = Random.State.make [| 0x5eed; num_queries |] in
  let unconstrained = Olar_core.Boundary.unconstrained in
  Array.init num_queries (fun i ->
      let containing =
        if i mod 3 = 0 then Itemset.empty
        else singletons.(Random.State.int rng (Array.length singletons))
      in
      let minsup = levels.(Random.State.int rng (Array.length levels)) in
      let minconf = confs.(Random.State.int rng (Array.length confs)) in
      if i > 0 && i mod append_every = 0 then begin
        (* a tiny delta over the same universe *)
        let rows =
          List.init 5 (fun _ ->
              Itemset.to_list
                singletons.(Random.State.int rng (Array.length singletons)))
        in
        Pool.Append (Database.of_lists ~num_items:(Database.num_items db) rows)
      end
      else
        match i mod 8 with
        | 0 -> Pool.Find_itemsets { containing; minsup }
        | 1 -> Pool.Count_itemsets { containing; minsup }
        | 2 ->
          Pool.Essential_rules
            { containing; constraints = unconstrained; minsup; minconf }
        | 3 ->
          Pool.All_rules
            { containing; constraints = unconstrained; minsup; minconf }
        | 4 -> Pool.Single_consequent_rules { containing; minsup; minconf }
        | 5 ->
          Pool.Support_for_k_itemsets
            { containing; k = 1 + Random.State.int rng 50 }
        | 6 ->
          Pool.Support_for_k_rules
            { involving = containing; minconf; k = 1 + Random.State.int rng 20 }
        | _ ->
          Pool.Boundary
            { target = deepest; constraints = unconstrained; minconf })

(* One run: a fresh engine, a pool of [domains], the whole workload as
   one batch. Returns the per-request digest sequence. An R_error has
   no digestible result; digest its message instead so error responses
   still participate in the bitwise comparison. *)
let digest_of_response resp =
  match Record.digest_response resp with
  | Some d -> d
  | None ->
    let msg = match resp with Pool.R_error e -> e | _ -> assert false in
    Fnv.string Fnv.empty msg

let digest_responses out = Array.map digest_of_response out

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

let digests_of_run ?engine db reqs ~domains ~budget_bytes =
  let engine = match engine with Some e -> e | None -> build_engine db in
  Pool.with_pool ~domains ~budget_bytes engine (fun pool ->
      digest_responses (Array.map fst (Pool.run pool reqs)))

(* Stream pass: requests go through raw [Pool.submit] with no
   intervening drain, so appends publish snapshots under live read
   traffic. Returns the number of digest/generation mismatches plus
   the count of retired snapshots that never reclaimed.

   The oracle: a first serial pass folds the appends once, capturing
   the (immutable) engine at every generation; the pooled pass records
   each response with the generation its completion carries; a second
   serial pass re-executes every read against exactly that generation's
   engine and demands a bitwise-equal digest. Appends themselves are
   positional — the coordinator folds them in submission order — and
   each read's generation is bounded below by the appends submitted
   before it and above by the final generation. *)
let stream_mismatches db reqs ~domains ~budget_bytes ~label =
  let n = Array.length reqs in
  (* serial pass 1: fold appends, snapshotting each generation *)
  let fold_session = Session.create ~budget_bytes:0 (build_engine db) in
  let engines = ref [ Session.engine fold_session ] in
  let append_digest = Hashtbl.create 16 in
  let append_gen = Hashtbl.create 16 in
  let gens = ref 0 in
  Array.iteri
    (fun i req ->
      match req with
      | Pool.Append _ ->
        let resp = serial_execute fold_session req in
        Hashtbl.replace append_digest i (digest_of_response resp);
        (match resp with
        | Pool.R_promoted _ ->
          incr gens;
          engines := Session.engine fold_session :: !engines
        | _ -> ());
        Hashtbl.replace append_gen i !gens
      | _ -> ())
    reqs;
  let engines = Array.of_list (List.rev !engines) in
  let total_gens = !gens in
  let appends_before = Array.make (max n 1) 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    appends_before.(i) <- !acc;
    match reqs.(i) with
    | Pool.Append _ -> acc := Hashtbl.find append_gen i
    | _ -> ()
  done;
  (* pooled pass: stream everything, appends fully live *)
  let out = Array.make n (Pool.R_error "unserved", -1) in
  let unreclaimed = ref 0 in
  let elapsed =
    snd
      (Olar_util.Timer.time (fun () ->
           Pool.with_pool ~domains ~budget_bytes (build_engine db)
             (fun pool ->
               Array.iteri
                 (fun i req ->
                   Pool.submit pool req (fun resp c ->
                       out.(i) <- (resp, c.Pool.gen)))
                 reqs;
               Pool.drain pool;
               (* every domain adopts at next claim or before parking,
                  so the retired list must empty shortly after drain *)
               let deadline = Unix.gettimeofday () +. 5.0 in
               let rec wait () =
                 let left = Pool.retired_snapshots pool in
                 if left = 0 then ()
                 else if Unix.gettimeofday () > deadline then
                   unreclaimed := left
                 else begin
                   Unix.sleepf 0.002;
                   wait ()
                 end
               in
               wait ())))
  in
  (* serial pass 2: replay each read at its recorded generation *)
  let sessions = Array.make (total_gens + 1) None in
  let session_at g =
    match sessions.(g) with
    | Some s -> s
    | None ->
      let s = Session.create ~budget_bytes engines.(g) in
      sessions.(g) <- Some s;
      s
  in
  let mismatches = ref 0 in
  let complain i fmt =
    incr mismatches;
    Printf.ksprintf
      (fun m ->
        if !mismatches <= 5 then
          Printf.printf "  STREAM MISMATCH at request %d: %s\n%!" i m)
      fmt
  in
  Array.iteri
    (fun i req ->
      let resp, g = out.(i) in
      match req with
      | Pool.Append _ ->
        let d = digest_of_response resp in
        let expected = Hashtbl.find append_digest i in
        if not (Int64.equal d expected) then
          complain i "append digest %s, serial %s" (Fnv.to_hex d)
            (Fnv.to_hex expected);
        let eg = Hashtbl.find append_gen i in
        if g <> eg then complain i "append recorded gen %d, expected %d" g eg
      | _ ->
        if g < appends_before.(i) || g > total_gens then
          complain i "recorded gen %d outside [%d, %d]" g appends_before.(i)
            total_gens
        else begin
          let d = digest_of_response resp in
          let expected =
            digest_of_response (serial_execute (session_at g) req)
          in
          if not (Int64.equal d expected) then
            complain i "digest %s at gen %d, serial %s" (Fnv.to_hex d) g
              (Fnv.to_hex expected)
        end)
    reqs;
  if !unreclaimed > 0 then
    Printf.printf "  STREAM LEAK: %d retired snapshots never reclaimed\n%!"
      !unreclaimed;
  Printf.printf
    "%s: pool(%d domains) live-append stream in %.2fs: %d mismatches (%d \
     gens, %d retired left)\n%!"
    label domains elapsed !mismatches total_gens !unreclaimed;
  !mismatches + !unreclaimed

let () =
  let domains = ref 8 in
  let repeat = ref 3 in
  let rec parse = function
    | [] -> ()
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> domains := n
      | _ -> failwith "--domains must be a positive integer");
      parse rest
    | "--repeat" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> repeat := n
      | _ -> failwith "--repeat must be a positive integer");
      parse rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let db = Olar_datagen.Quest.generate params in
  let reqs = build_workload db in
  (* an append every ~20 requests keeps several generations in flight *)
  let dense_reqs = build_workload ~append_every:21 db in
  let failures = ref 0 in
  List.iter
    (fun budget_bytes ->
      let label =
        if budget_bytes = 0 then "budget 0"
        else Printf.sprintf "budget %dMiB" (budget_bytes / 1024 / 1024)
      in
      let serial, serial_s =
        Olar_util.Timer.time (fun () ->
            digests_of_run db reqs ~domains:1 ~budget_bytes)
      in
      Printf.printf "%s: serial reference %d requests in %.2fs\n%!" label
        (Array.length serial) serial_s;
      for r = 1 to !repeat do
        let pooled, pooled_s =
          Olar_util.Timer.time (fun () ->
              digests_of_run db reqs ~domains:!domains ~budget_bytes)
        in
        let mismatches = ref 0 in
        Array.iteri
          (fun i d ->
            if not (Int64.equal d serial.(i)) then begin
              incr mismatches;
              if !mismatches <= 5 then
                Printf.printf
                  "  MISMATCH at request %d: serial %s, pool %s\n%!" i
                  (Fnv.to_hex serial.(i)) (Fnv.to_hex d)
            end)
          pooled;
        Printf.printf "%s: pool(%d domains) run %d/%d in %.2fs: %d mismatches\n%!"
          label !domains r !repeat pooled_s !mismatches;
        failures := !failures + !mismatches
      done;
      failures :=
        !failures
        + stream_mismatches db reqs ~domains:!domains ~budget_bytes ~label;
      failures :=
        !failures
        + stream_mismatches db dense_reqs ~domains:!domains ~budget_bytes
            ~label:(label ^ " dense-append"))
    [ 0; 8 * 1024 * 1024 ];
  (* Traced pass: the same pooled workload with the sharded tracer on.
     Tracing must not perturb a single digest, and every span the merge
     emits must say which domain produced it. *)
  let sink, spans = Olar_obs.Sink.memory () in
  let traced_engine =
    Engine.at_threshold
      ~obs:(Olar_obs.Obs.create ~trace:sink ())
      db ~primary_support
  in
  let serial = digests_of_run db reqs ~domains:1 ~budget_bytes:0 in
  let traced, traced_s =
    Olar_util.Timer.time (fun () ->
        digests_of_run ~engine:traced_engine db reqs ~domains:!domains
          ~budget_bytes:0)
  in
  Olar_obs.Obs.flush_opt (Engine.obs traced_engine);
  let mismatches = ref 0 in
  Array.iteri
    (fun i d -> if not (Int64.equal d serial.(i)) then incr mismatches)
    traced;
  let emitted = spans () in
  let untagged =
    List.length
      (List.filter
         (fun s -> not (List.mem_assoc "domain" s.Olar_obs.Trace.attrs))
         emitted)
  in
  Printf.printf
    "traced: pool(%d domains) with tracing on in %.2fs: %d mismatches, %d \
     spans (%d untagged)\n%!"
    !domains traced_s !mismatches (List.length emitted) untagged;
  failures := !failures + !mismatches + untagged;
  if emitted = [] then begin
    print_endline "traced: no spans emitted — tracer silently disabled";
    incr failures
  end;
  if !failures > 0 then begin
    Printf.printf "pool stress FAILED: %d digest mismatches\n" !failures;
    exit 1
  end;
  print_endline "pool stress OK: all digests bitwise-identical to serial"
