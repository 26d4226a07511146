(* Capture -> replay smoke check (the @replay-smoke alias).

   Generates a small deterministic database, captures a 200-query canned
   workload — every query family, including one boundary walk per cycle
   and one mid-stream append — to a jsonl log, then replays the log
   against freshly preprocessed engines both uncached and cached. Any
   digest mismatch is a correctness regression and fails the alias. *)

open Olar_data
module Engine = Olar_core.Engine
module Lattice = Olar_core.Lattice
module Session = Olar_serve.Session
module Recorder = Olar_replay.Recorder
module Record = Olar_replay.Record
module Replay = Olar_replay.Replay

let num_queries = 200
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

(* Each engine gets its own obs context (and so its own registry of
   work counters): the recorder reads per-query deltas from them. *)
let build_engine db =
  Engine.at_threshold ~obs:(Olar_obs.Obs.create ()) db ~primary_support

(* Deterministic query mix. Support levels sit at or above the primary
   threshold so no query is refused; start itemsets are frequent
   singletons so constrained queries land on live lattice regions. *)
let run_workload recorder engine db =
  let run key = ignore (Recorder.run recorder key) in
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
  let p = Engine.primary_threshold engine in
  let levels = [| p; p *. 1.5; p *. 2.5; p *. 4.0 |] in
  let confs = [| 0.2; 0.5; 0.8 |] in
  let rng = Random.State.make [| 0x5eed |] in
  for i = 0 to num_queries - 1 do
    let containing =
      if i mod 3 = 0 then Itemset.empty
      else singletons.(Random.State.int rng (Array.length singletons))
    in
    let minsup = levels.(Random.State.int rng (Array.length levels)) in
    let minconf = confs.(Random.State.int rng (Array.length confs)) in
    if i = num_queries / 2 then begin
      (* mid-stream maintenance: a tiny delta over the same universe *)
      let rows =
        List.init 5 (fun _ ->
            Itemset.to_list
              singletons.(Random.State.int rng (Array.length singletons)))
      in
      let delta = Database.of_lists ~num_items:(Database.num_items db) rows in
      run (Record.key ~delta Record.Append)
    end
    else
      run
        (match i mod 8 with
        | 0 -> Record.key ~containing ~minsup Record.Find_itemsets
        | 1 -> Record.key ~containing ~minsup Record.Count_itemsets
        | 2 -> Record.key ~containing ~minsup ~minconf Record.Essential_rules
        | 3 -> Record.key ~containing ~minsup ~minconf Record.All_rules
        | 4 -> Record.key ~containing ~minsup ~minconf Record.Single_consequent_rules
        | 5 ->
          Record.key ~containing ~k:(1 + Random.State.int rng 50)
            Record.Support_for_k_itemsets
        | 6 ->
          Record.key ~containing ~minconf ~k:(1 + Random.State.int rng 20)
            Record.Support_for_k_rules
        | _ -> Record.key ~containing:!deepest ~minconf Record.Boundary)
  done

let replay_against ~budget_bytes db records =
  let session = Session.create ~budget_bytes (build_engine db) in
  Replay.run session records

let () =
  let db = Olar_datagen.Quest.generate params in
  let log_path = Filename.temp_file "olar_replay_smoke" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log_path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out log_path in
      let emit r =
        output_string oc (Record.to_json_line r);
        output_char oc '\n'
      in
      let capture_session = Session.create ~budget_bytes:0 (build_engine db) in
      let recorder = Recorder.create ~emit capture_session in
      run_workload recorder (Session.engine capture_session) db;
      close_out oc;
      let records =
        match Replay.load log_path with
        | Ok (rs, None) -> rs
        | Ok (_, Some torn) -> failwith torn
        | Error e -> failwith e
      in
      if List.length records <> num_queries then
        failwith
          (Printf.sprintf "captured %d records, expected %d"
             (List.length records) num_queries);
      let check label (report : Replay.report) =
        Printf.printf
          "%s: %d queries, %d mismatches (%d errors), work %d -> %d vertices\n"
          label report.total report.mismatches report.errors
          report.recorded_vertices report.replayed_vertices;
        report.mismatches = 0
      in
      let ok_uncached =
        check "uncached" (replay_against ~budget_bytes:0 db records)
      in
      let ok_cached =
        check "cached(8MiB)"
          (replay_against ~budget_bytes:(8 * 1024 * 1024) db records)
      in
      if not (ok_uncached && ok_cached) then exit 1;
      print_endline "replay smoke OK")
