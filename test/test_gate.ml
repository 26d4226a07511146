(* The perf gate (bench/compare_json.exe) on small fixture documents:
   exact ladder counts, missing series, the qps floor and the compiler
   version check; plus bench/ladder_json.exe, which assembles the
   ladder document from traced perfbench runs. Skipped when the bench
   binaries or the committed baseline are not beside the test runner. *)

let beside_runner rel =
  let path = Filename.concat (Filename.dirname Sys.executable_name) rel in
  if Sys.file_exists path then path else Alcotest.skip ()

let exe name = beside_runner ("../bench/" ^ name)

let write dir name text =
  let path = Filename.concat dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  path

let ladder ?(version = Sys.ocaml_version) counts =
  Printf.sprintf "{\"ocaml_version\":%S,\"counts\":[%s]}" version
    (String.concat ","
       (List.map
          (fun (w, m, v) ->
            Printf.sprintf "{\"workload\":%S,\"metric\":%S,\"value\":%.17g}" w m
              v)
          counts))

let baseline =
  [
    ("analyst", "kernel.vertices_per_req", 1216.1787109375);
    ("analyst", "session.served_frac", 0.533203125);
    ("scan", "kernel.heap_pops_per_req", 0.0);
  ]

(* Run compare_json on OLD and NEW texts: exit code and all output. *)
let compare old_text new_text =
  Test_cli.in_temp_dir (fun dir ->
      let old_path = write dir "old.json" old_text in
      let new_path = write dir "new.json" new_text in
      Test_cli.run_cli (exe "compare_json.exe") [ old_path; new_path ])

let expect name code needles (got, lines) =
  if got <> code then
    Alcotest.failf "%s: exit %d, expected %d: %s" name got code
      (String.concat " | " lines);
  List.iter
    (fun needle ->
      if not (Test_cli.contains lines needle) then
        Alcotest.failf "%s: no %S in: %s" name needle (String.concat " | " lines))
    needles

let test_identical () =
  let doc = ladder baseline in
  expect "identical ladder" 0 [ "OK: 3 series" ] (compare doc doc)

let test_one_unit_drift () =
  let drifted =
    List.map
      (fun (w, m, v) ->
        if m = "kernel.vertices_per_req" then (w, m, v +. 1.0) else (w, m, v))
      baseline
  in
  expect "one-unit drift" 1
    [ "REGRESSION ladder/analyst/kernel.vertices_per_req: 1216.1787109375 -> \
       1217.1787109375" ]
    (compare (ladder baseline) (ladder drifted))

let test_missing () =
  let without p = ladder (List.filter (fun c -> not (p c)) baseline) in
  expect "workload missing" 1
    [ "REGRESSION ladder/scan/kernel.heap_pops_per_req: missing" ]
    (compare (ladder baseline) (without (fun (w, _, _) -> w = "scan")));
  expect "metric missing" 1
    [ "REGRESSION ladder/analyst/session.served_frac: missing" ]
    (compare (ladder baseline)
       (without (fun (_, m, _) -> m = "session.served_frac")))

let test_qps_floor () =
  let doc qps =
    Printf.sprintf
      "{\"experiments\":{\"qps\":{\"scenarios\":[{\"name\":\"find \
       targeted\",\"qps\":%g}]}}}"
      qps
  in
  expect "just over the -20% floor" 0 [ "OK: 1 series" ]
    (compare (doc 1000.0) (doc 800.5));
  expect "just under the -20% floor" 1
    [ "REGRESSION qps/find targeted: 1000 -> 799.5" ]
    (compare (doc 1000.0) (doc 799.5))

let test_version_mismatch () =
  let ((_, lines) as result) =
    compare
      (ladder ~version:"4.14.0" baseline)
      (ladder (List.map (fun (w, m, v) -> (w, m, v +. 1.0)) baseline))
  in
  expect "version mismatch" 1 [ "re-record the baseline" ] result;
  if Test_cli.contains lines "REGRESSION" then
    Alcotest.fail "a version mismatch must not list drifts"

(* The committed baseline parses, records its compiler and holds the 14
   counts of all three workloads. *)
let test_committed_baseline () =
  let text =
    In_channel.with_open_bin
      (beside_runner "../BENCH_ladder.json")
      In_channel.input_all
  in
  (match Olar_obs.Jsonx.of_string text with
  | Ok doc ->
    if Olar_obs.Jsonx.member "ocaml_version" doc = None then
      Alcotest.fail "BENCH_ladder.json records no ocaml_version"
  | Error e -> Alcotest.failf "BENCH_ladder.json: %s" e);
  expect "baseline against itself" 0 [ "OK: 42 series" ] (compare text text)

let test_ladder_json () =
  Test_cli.in_temp_dir (fun dir ->
      let metrics names =
        String.concat ","
          (List.map
             (fun n -> Printf.sprintf "%S:{\"value\":7,\"unit\":\"count\"}" n)
             names)
      in
      let counts =
        [
          "setup.mine_candidates"; "setup.db_passes"; "setup.lattice_vertices";
          "setup.lattice_bytes"; "kernel.minor_words_per_req";
          "kernel.vertices_per_req"; "kernel.heap_pops_per_req";
          "engine.minor_words_per_req"; "session.b0.minor_words_per_req";
          "session.b8.minor_words_per_req"; "session.served_frac";
          "session.refine_frac"; "session.evictions";
          "pool.minor_words_per_req";
        ]
      in
      let run =
        write dir "run.out"
          (Printf.sprintf
             "human-readable line\n{\"correct\":true,\"metrics\":{%s}}\n"
             (metrics ("kernel.ns_per_req" :: "pool.retired_after_drain" :: counts)))
      in
      let out = Filename.concat dir "ladder.json" in
      expect "ladder_json" 0 [ "wrote 14 counts" ]
        (Test_cli.run_cli (exe "ladder_json.exe") [ out; "analyst=" ^ run ]);
      let doc = In_channel.with_open_bin out In_channel.input_all in
      if not (Helpers.contains_substring doc Sys.ocaml_version) then
        Alcotest.fail "ladder document does not record Sys.ocaml_version";
      expect "ladder_json output gates against itself" 0 [ "OK: 14 series" ]
        (compare doc doc);
      let untraced =
        write dir "untraced.out"
          "{\"correct\":true,\"metrics\":{\"qps\":{\"value\":1,\"unit\":\"1/s\"}}}\n"
      in
      expect "untraced run" 1 [ "no setup.mine_candidates" ]
        (Test_cli.run_cli (exe "ladder_json.exe") [ out; "analyst=" ^ untraced ]))

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "bench.gate",
      [
        case "identical documents pass" test_identical;
        case "one-unit ladder drift fails" test_one_unit_drift;
        case "missing workload or metric fails" test_missing;
        case "qps floor" test_qps_floor;
        case "ocaml version mismatch asks for a re-record" test_version_mismatch;
        case "committed ladder baseline" test_committed_baseline;
        case "ladder_json assembles traced runs" test_ladder_json;
      ] );
  ]
