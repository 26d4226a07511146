(* The workload log (lib/replay): FNV digest determinism and hex
   round-trips, the jsonl record codec over every query kind, recorder
   accounting (seq, cache path, slow-query filter, raising queries), a
   digest-stability property across engine rebuilds and cached vs
   uncached execution, and the capture -> replay round trip including
   mid-stream appends and tamper detection. *)

open Olar_data
open Olar_core
module Session = Olar_serve.Session
module Fnv = Olar_replay.Fnv
module Record = Olar_replay.Record
module Recorder = Olar_replay.Recorder
module Replay = Olar_replay.Replay

let check = Alcotest.check
let set = Itemset.of_list

(* ------------------------------------------------------------------ *)
(* Fnv *)

let test_fnv_basics () =
  (* the empty digest is the published FNV-1a 64-bit offset basis *)
  check Alcotest.string "empty = offset basis" "cbf29ce484222325"
    (Fnv.to_hex Fnv.empty);
  check Alcotest.bool "folding is pure" true
    (Int64.equal (Fnv.int Fnv.empty 7) (Fnv.int Fnv.empty 7));
  let h1 = Fnv.int (Fnv.itemset Fnv.empty (set [ 1; 3 ])) 7 in
  let h2 = Fnv.int (Fnv.itemset Fnv.empty (set [ 3; 1 ])) 7 in
  check Alcotest.bool "itemsets fold in canonical item order" true
    (Int64.equal h1 h2);
  check Alcotest.bool "different input, different hash" false
    (Int64.equal h1 (Fnv.int (Fnv.itemset Fnv.empty (set [ 1; 3 ])) 8));
  check Alcotest.bool "order-sensitive over the fold" false
    (Int64.equal
       (Fnv.int (Fnv.int Fnv.empty 1) 2)
       (Fnv.int (Fnv.int Fnv.empty 2) 1))

let test_fnv_hex_roundtrip () =
  let samples =
    [ Fnv.empty; Fnv.int Fnv.empty 42; Fnv.float Fnv.empty (-0.125);
      Fnv.itemset Fnv.empty (set [ 0; 7 ]); Int64.minus_one; 0L ]
  in
  List.iter
    (fun h ->
      match Fnv.of_hex (Fnv.to_hex h) with
      | Some h' -> check Alcotest.bool "hex round-trip" true (Int64.equal h h')
      | None -> Alcotest.failf "of_hex rejected %s" (Fnv.to_hex h))
    samples;
  List.iter
    (fun bad ->
      match Fnv.of_hex bad with
      | None -> ()
      | Some _ -> Alcotest.failf "of_hex accepted %S" bad)
    [ ""; "123"; "xyzxyzxyzxyzxyzx"; "cbf29ce484222325ff"; "0xcbf29ce4842223" ]

(* ------------------------------------------------------------------ *)
(* Record codec *)

let base_record kind =
  {
    Record.seq = 3;
    kind;
    containing = set [ 2; 5 ];
    antecedent_includes = Itemset.empty;
    consequent_includes = Itemset.empty;
    allow_empty_antecedent = false;
    minsup = Some 0.0123;
    minconf = None;
    k = None;
    delta = [];
    delta_num_items = 0;
    cache = Record.Miss;
    digest = Fnv.int Fnv.empty 99;
    result_size = 17;
    latency_s = 0.00042;
    vertices = 1234;
    heap_pops = 0;
    epoch = 2;
  }

let variants =
  [
    base_record Record.Find_itemsets;
    { (base_record Record.Count_itemsets) with containing = Itemset.empty };
    {
      (base_record Record.Essential_rules) with
      minconf = Some 0.75;
      antecedent_includes = set [ 1 ];
      consequent_includes = set [ 4 ];
      allow_empty_antecedent = true;
      cache = Record.Hit;
    };
    { (base_record Record.All_rules) with minconf = Some 0.5 };
    {
      (base_record Record.Single_consequent_rules) with
      minconf = Some 1.0;
      cache = Record.Refine;
    };
    { (base_record Record.Support_for_k_itemsets) with minsup = None; k = Some 10 };
    {
      (base_record Record.Support_for_k_rules) with
      minsup = None;
      minconf = Some 0.3;
      k = Some 5;
      cache = Record.Passthrough;
    };
    { (base_record Record.Boundary) with minsup = None; minconf = Some 0.9 };
    {
      (base_record Record.Append) with
      minsup = None;
      containing = Itemset.empty;
      delta = [ [ 0; 2 ]; []; [ 1 ] ];
      delta_num_items = 6;
      cache = Record.Passthrough;
    };
  ]

let test_record_roundtrip () =
  List.iter
    (fun (r : Record.t) ->
      let line = Record.to_json_line r in
      match Record.of_json_line line with
      | Error e ->
        Alcotest.failf "%s does not re-parse: %s"
          (Record.kind_to_string r.Record.kind)
          e
      | Ok r' ->
        check Alcotest.string
          ("stable encoding for " ^ Record.kind_to_string r.Record.kind)
          line (Record.to_json_line r');
        check Alcotest.bool "digest preserved exactly" true
          (Int64.equal r.Record.digest r'.Record.digest);
        check Alcotest.bool "latency preserved exactly" true
          (r.Record.latency_s = r'.Record.latency_s);
        check Alcotest.bool "itemset preserved" true
          (Itemset.equal r.Record.containing r'.Record.containing);
        check Alcotest.bool "delta preserved" true (r.Record.delta = r'.Record.delta))
    variants

let test_record_rejects_malformed () =
  let good = Record.to_json_line (base_record Record.Find_itemsets) in
  List.iter
    (fun bad ->
      match Record.of_json_line bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed line %S" bad)
    [
      "";
      "not json";
      "{}";
      {|{"v":2,"seq":0,"kind":"find","digest":"cbf29ce484222325","size":0,"lat_s":0,"vertices":0,"pops":0,"epoch":1,"cache":"pass"}|};
      {|{"v":1,"seq":0,"kind":"warp","digest":"cbf29ce484222325","size":0,"lat_s":0,"vertices":0,"pops":0,"epoch":1,"cache":"pass"}|};
      {|{"v":1,"seq":0,"kind":"find","digest":"zz","size":0,"lat_s":0,"vertices":0,"pops":0,"epoch":1,"cache":"pass"}|};
      {|{"v":1,"seq":0,"kind":"find","digest":"cbf29ce484222325","size":0,"lat_s":0,"vertices":0,"pops":0,"epoch":1,"cache":"sideways"}|};
    ];
  match Record.of_json_line good with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "golden line rejected: %s" e

(* ------------------------------------------------------------------ *)
(* Recorder accounting *)

let recording_session ?(budget_bytes = 1 lsl 20) () =
  let engine = Engine.of_lattice (Helpers.table2_lattice ()) in
  Session.create ~budget_bytes engine

(* db_size 1000 in the Table 2 fixture *)
let f c = float_of_int c /. 1000.0

(* Query keys, as the CLI and replay build them *)
let find ?containing minsup = Record.key ?containing ~minsup Record.Find_itemsets
let count ?containing minsup = Record.key ?containing ~minsup Record.Count_itemsets

let essential ?containing minsup minconf =
  Record.key ?containing ~minsup ~minconf Record.Essential_rules

let top_k containing k = Record.key ~containing ~k Record.Support_for_k_itemsets
let boundary target minconf = Record.key ~containing:target ~minconf Record.Boundary
let run recorder key = ignore (Recorder.run recorder key)

let test_recorder_accounting () =
  let session = recording_session () in
  let out = ref [] in
  let recorder = Recorder.create ~emit:(fun r -> out := r :: !out) session in
  run recorder (find (f 3));
  run recorder (find (f 10));
  run recorder (count (f 3));
  run recorder (boundary (set [ 1 ]) 0.5);
  match List.rev !out with
  | [ a; b; c; d ] ->
    check Alcotest.int "seq 0" 0 a.Record.seq;
    check Alcotest.int "seq 3" 3 d.Record.seq;
    check Alcotest.string "cold find misses" "miss"
      (Record.cache_path_to_string a.Record.cache);
    check Alcotest.string "narrower cut refines" "refine"
      (Record.cache_path_to_string b.Record.cache);
    check Alcotest.string "count rides the cached prefix" "hit"
      (Record.cache_path_to_string c.Record.cache);
    check Alcotest.string "boundary is passthrough" "pass"
      (Record.cache_path_to_string d.Record.cache);
    check Alcotest.int "find size is the id count" 9 a.Record.result_size;
    check Alcotest.bool "count digest hashes the number" true
      (Int64.equal c.Record.digest (Olar_replay.Fnv.int Fnv.empty 9));
    check Alcotest.int "recorder counted them" 4 (Recorder.count recorder)
  | l -> Alcotest.failf "expected 4 records, got %d" (List.length l)

let test_recorder_slow_filter () =
  let session = recording_session () in
  let out = ref [] in
  let now = ref 0.0 in
  let recorder =
    Recorder.create ~slow_s:0.5
      ~clock:(fun () -> !now)
      ~emit:(fun r -> out := r :: !out)
      session
  in
  run recorder (count (f 3));
  check Alcotest.int "fast query filtered" 0 (List.length !out);
  check Alcotest.int "but still numbered" 1 (Recorder.count recorder);
  (* make the next query appear slow to the recorder's clock *)
  let slow_session = recording_session () in
  let slow_out = ref [] in
  let t = ref 0.0 in
  let ticking =
    (* each clock call advances by 0.4s, so one query spans 0.4s < 0.5
       and two nested reads push the second query over the threshold *)
    Recorder.create ~slow_s:0.3
      ~clock:(fun () ->
        let v = !t in
        t := v +. 0.4;
        v)
      ~emit:(fun r -> slow_out := r :: !slow_out)
      slow_session
  in
  run ticking (count (f 3));
  (match !slow_out with
  | [ r ] ->
    check Alcotest.int "slow query emitted with its seq" 0 r.Record.seq;
    check (Alcotest.float 1e-9) "latency from the recorder clock" 0.4
      r.Record.latency_s
  | l -> Alcotest.failf "expected 1 slow record, got %d" (List.length l));
  (* a raising query emits nothing and does not consume a seq *)
  let raising = recording_session () in
  let r_out = ref [] in
  let rec_r = Recorder.create ~emit:(fun r -> r_out := r :: !r_out) raising in
  (try run rec_r (find (0.5 /. 1000.0)) (* below primary *)
   with Query.Below_primary_threshold _ -> ());
  (* so does a structurally incomplete key, raising Failure *)
  (match Recorder.run rec_r (Record.key Record.Find_itemsets) with
  | _ -> Alcotest.fail "a find key without minsup ran"
  | exception Failure _ -> ());
  check Alcotest.int "nothing emitted" 0 (List.length !r_out);
  check Alcotest.int "seq not consumed" 0 (Recorder.count rec_r)

(* A clock that steps backwards mid-query (NTP adjustment, VM
   migration) must never yield a negative latency: the recorder clamps
   at zero. The default clock is [Timer.monotonic_s], which cannot
   regress at all, so this exercises the belt-and-braces clamp behind
   an injected wall clock. *)
let test_recorder_backwards_clock () =
  let session = recording_session () in
  let out = ref [] in
  (* t0 = 10.0 at query start, then the clock jumps back to 4.0 *)
  let times = ref [ 10.0; 4.0 ] in
  let clock () =
    match !times with
    | [] -> 4.0
    | t :: rest ->
      times := rest;
      t
  in
  let recorder =
    Recorder.create ~clock ~emit:(fun r -> out := r :: !out) session
  in
  run recorder (count (f 3));
  match !out with
  | [ r ] ->
    check (Alcotest.float 0.0) "latency clamped to zero, not -6s" 0.0
      r.Record.latency_s
  | l -> Alcotest.failf "expected 1 record, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Digest stability property *)

let digest_of_db db ~session_of (minsup_count, containing, minconf) =
  let session = session_of db in
  let out = ref [] in
  let recorder = Recorder.create ~emit:(fun r -> out := r :: !out) session in
  let minsup_count = min minsup_count (Database.size db) in
  let minsup = float_of_int minsup_count /. float_of_int (Database.size db) in
  run recorder (find ~containing minsup);
  run recorder (essential ~containing minsup minconf);
  run recorder (count ~containing minsup);
  run recorder (top_k containing 3);
  List.rev_map (fun r -> r.Record.digest) !out

let digest_scenario_gen =
  let open QCheck2.Gen in
  let* db = Helpers.db_gen in
  let* containing = Helpers.itemset_gen ~num_items:(Database.num_items db) in
  let* minsup_count = int_range 1 5 in
  let* minconf = oneofl [ 0.25; 0.5; 0.9 ] in
  return (db, (minsup_count, containing, minconf))

let digest_stability_prop =
  QCheck2.Test.make
    ~name:"replay: digests stable across rebuilds, scratch and caching"
    ~count:150
    ~print:(fun (db, (c, x, m)) ->
      Format.asprintf "%s minsup_count=%d containing=%a minconf=%g"
        (Helpers.db_print db) c Itemset.pp x m)
    digest_scenario_gen
    (fun (db, query) ->
      let uncached db = Session.create ~budget_bytes:0 (Helpers.full_engine db) in
      let cached db =
        Session.create ~budget_bytes:(1 lsl 20) (Helpers.full_engine db)
      in
      let a = digest_of_db db ~session_of:uncached query in
      (* a fresh engine rebuild (new lattice, new scratch) ... *)
      let b = digest_of_db db ~session_of:uncached query in
      (* ... and a cached session over yet another rebuild *)
      let c = digest_of_db db ~session_of:cached query in
      List.for_all2 Int64.equal a b && List.for_all2 Int64.equal a c)

(* ------------------------------------------------------------------ *)
(* Replay round trip *)

let capture_workload session =
  let out = ref [] in
  let recorder = Recorder.create ~emit:(fun r -> out := r :: !out) session in
  run recorder (find (f 3));
  run recorder (essential (f 3) 0.5);
  run recorder (boundary (set [ 1 ]) 0.5);
  (* mid-stream maintenance bumps supports for later queries *)
  run recorder
    (Record.key
       ~delta:(Database.of_lists ~num_items:6 [ [ 1; 2 ]; [ 1; 2; 3 ] ])
       Record.Append);
  run recorder (find (f 3));
  run recorder (count (f 10));
  run recorder (top_k Itemset.empty 4);
  List.rev !out

let test_replay_roundtrip () =
  let records = capture_workload (recording_session ()) in
  check Alcotest.int "captured the workload" 7 (List.length records);
  (* a fresh session over a fresh engine replays with zero mismatches,
     both uncached and cached *)
  List.iter
    (fun budget_bytes ->
      let report =
        Replay.run (recording_session ~budget_bytes ()) records
      in
      check Alcotest.int "total" 7 report.Replay.total;
      check Alcotest.int "mismatches" 0 report.Replay.mismatches;
      check Alcotest.int "errors" 0 report.Replay.errors)
    [ 0; 1 lsl 20 ];
  (* the jsonl round trip preserves replayability *)
  let path = Filename.temp_file "olar_test_replay" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      List.iter
        (fun r ->
          output_string oc (Record.to_json_line r);
          output_char oc '\n')
        records;
      close_out oc;
      match Replay.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (_, Some torn) -> Alcotest.failf "clean log read as torn: %s" torn
      | Ok (loaded, None) ->
        let report = Replay.run (recording_session ()) loaded in
        check Alcotest.int "loaded log replays clean" 0
          report.Replay.mismatches)

(* A daemon killed between a capture line and its newline leaves an
   unterminated, unparsable final line: the prefix still replays, and
   the torn line is reported, not fatal. Every other malformed line —
   including a malformed last line that does end in a newline — still
   fails the load, naming its line. *)
let test_load_torn_tail () =
  let records = capture_workload (recording_session ()) in
  let lines = List.map Record.to_json_line records in
  let torn = String.sub (List.nth lines 6) 0 25 in
  let load_text text =
    let path = Filename.temp_file "olar_test_torn" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        Replay.load path)
  in
  let prefix = String.concat "\n" (List.filteri (fun i _ -> i < 6) lines) ^ "\n" in
  (match load_text (prefix ^ torn) with
  | Ok (rs, Some note) ->
    check Alcotest.bool "torn line reported" true
      (String.ends_with ~suffix:":7: torn final line ignored" note);
    check Alcotest.int "prefix loaded" 6 (List.length rs);
    let report = Replay.run (recording_session ()) rs in
    check Alcotest.int "prefix replays" 6 report.Replay.total;
    check Alcotest.int "with zero mismatches" 0 report.Replay.mismatches
  | Ok (_, None) -> Alcotest.fail "torn tail not reported"
  | Error e -> Alcotest.failf "torn tail rejected the log: %s" e);
  let fails what text line =
    match load_text text with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
      check Alcotest.bool (what ^ " names its line") true
        (Helpers.contains_substring e (Printf.sprintf ".jsonl:%d: " line))
  in
  fails "malformed last line ending in a newline" (prefix ^ torn ^ "\n") 7;
  fails "malformed middle line" (prefix ^ torn ^ "\n" ^ List.nth lines 6) 7;
  fails "malformed first line" (torn ^ "\n" ^ prefix) 1

let test_replay_detects_tampering () =
  let records = capture_workload (recording_session ()) in
  let tampered =
    List.mapi
      (fun i (r : Record.t) ->
        if i = 4 then { r with Record.digest = Int64.lognot r.Record.digest }
        else r)
      records
  in
  let seen = ref [] in
  let report =
    Replay.run
      ~on_outcome:(fun o -> if not o.Replay.ok then seen := o :: !seen)
      (recording_session ()) tampered
  in
  check Alcotest.int "exactly the tampered record mismatches" 1
    report.Replay.mismatches;
  check Alcotest.int "no replay errors" 0 report.Replay.errors;
  (match !seen with
  | [ o ] -> check Alcotest.int "outcome points at seq 4" 4 o.Replay.record.Record.seq
  | l -> Alcotest.failf "expected 1 failing outcome, got %d" (List.length l));
  (* a structurally broken record is an error, not a crash *)
  let broken =
    List.mapi
      (fun i (r : Record.t) ->
        if i = 0 then { r with Record.minsup = None } else r)
      records
  in
  let report = Replay.run (recording_session ()) broken in
  check Alcotest.int "broken record is an error" 1 report.Replay.errors;
  check Alcotest.int "and counts as a mismatch" 1 report.Replay.mismatches

(* The same captured log, replayed through a 4-domain pool: appends
   barrier the batch, so every digest must still match the capture at
   both cache budgets. *)
let test_replay_pool_roundtrip () =
  let records = capture_workload (recording_session ()) in
  List.iter
    (fun budget_bytes ->
      let engine = Engine.of_lattice (Helpers.table2_lattice ()) in
      Olar_serve.Pool.with_pool ~domains:4 ~budget_bytes engine (fun pool ->
          let report = Replay.run_pool pool records in
          check Alcotest.int "total" 7 report.Replay.total;
          check Alcotest.int "pool replay mismatches" 0
            report.Replay.mismatches;
          check Alcotest.int "errors" 0 report.Replay.errors))
    [ 0; 1 lsl 20 ]

let case name fn = Alcotest.test_case name `Quick fn

let suites =
  [
    ( "replay.fnv",
      [ case "basics" test_fnv_basics; case "hex round-trip" test_fnv_hex_roundtrip ]
    );
    ( "replay.record",
      [
        case "jsonl round-trip per kind" test_record_roundtrip;
        case "malformed rejected" test_record_rejects_malformed;
      ] );
    ( "replay.recorder",
      [
        case "accounting" test_recorder_accounting;
        case "slow filter and raises" test_recorder_slow_filter;
        case "backwards clock clamps latency" test_recorder_backwards_clock;
      ] );
    ( "replay.replay",
      [
        case "capture/replay round trip" test_replay_roundtrip;
        case "tamper detection" test_replay_detects_tampering;
        case "torn final line" test_load_torn_tail;
        case "pool replay round trip" test_replay_pool_roundtrip;
      ] );
    Helpers.qsuite "replay.digest" [ digest_stability_prop ];
  ]
