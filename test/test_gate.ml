(* The exact-count gate (bench/compare_json.exe) on small fixture
   documents and on both committed baselines: drifts, missing series
   and the compiler version check; plus bench/ladder_json.exe, which
   assembles the ladder document from traced perfbench runs. Skipped
   when the bench binaries or baselines are not beside the runner. *)

let beside_runner rel =
  let path = Filename.concat (Filename.dirname Sys.executable_name) rel in
  if Sys.file_exists path then path else Alcotest.skip ()

let exe name = beside_runner ("../bench/" ^ name)

let write dir name text =
  let path = Filename.concat dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  path

let counts ?(version = Sys.ocaml_version) rows =
  Printf.sprintf "{\"ocaml_version\":%S,\"counts\":[%s]}" version
    (String.concat ","
       (List.map
          (fun (w, m, v) ->
            Printf.sprintf "{\"workload\":%S,\"metric\":%S,\"value\":%.17g}" w m
              v)
          rows))

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
  let doc = counts baseline in
  expect "identical ladder" 0 [ "OK: 3 series" ] (compare doc doc)

(* A one-unit move in a ladder row or a BENCH_T10I4.json row fails,
   naming its workload (or scenario) and metric. *)
let test_one_unit_drift () =
  List.iter
    (fun ((w, m, v), needle) ->
      let doc v = counts ((w, m, v) :: List.tl baseline) in
      expect needle 1 [ needle ] (compare (doc v) (doc (v +. 1.0))))
    [
      ( List.hd baseline,
        "REGRESSION analyst/kernel.vertices_per_req: 1216.1787109375 -> \
         1217.1787109375" );
      ( ("kernel/find targeted", "work_per_query", 594.60546875),
        "REGRESSION kernel/find targeted/work_per_query: 594.60546875 -> \
         595.60546875" );
    ]

let test_missing () =
  let without p = counts (List.filter (fun c -> not (p c)) baseline) in
  expect "workload missing" 1
    [ "REGRESSION scan/kernel.heap_pops_per_req: missing" ]
    (compare (counts baseline) (without (fun (w, _, _) -> w = "scan")));
  expect "metric missing" 1
    [ "REGRESSION analyst/session.served_frac: missing" ]
    (compare (counts baseline)
       (without (fun (_, m, _) -> m = "session.served_frac")))

let test_version_mismatch () =
  let ((_, lines) as result) =
    compare
      (counts ~version:"4.14.0" baseline)
      (counts (List.map (fun (w, m, v) -> (w, m, v +. 1.0)) baseline))
  in
  expect "version mismatch" 1 [ "re-record the baseline" ] result;
  if Test_cli.contains lines "REGRESSION" then
    Alcotest.fail "a version mismatch must not list drifts"

(* A committed baseline parses, records its compiler and passes against
   itself with all its [rows]. *)
let test_committed_baseline name rows () =
  let text =
    In_channel.with_open_bin (beside_runner ("../" ^ name)) In_channel.input_all
  in
  (match Olar_obs.Jsonx.of_string text with
  | Ok doc when Olar_obs.Jsonx.member "ocaml_version" doc <> None -> ()
  | _ -> Alcotest.failf "%s does not parse or records no ocaml_version" name);
  expect (name ^ " against itself") 0
    [ Printf.sprintf "OK: %d series" rows ] (compare text text)

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
        case "ocaml version mismatch asks for a re-record" test_version_mismatch;
        case "committed ladder baseline"
          (test_committed_baseline "BENCH_ladder.json" 42);
        case "committed t10i4 baseline"
          (test_committed_baseline "BENCH_T10I4.json" 53);
        case "ladder_json assembles traced runs" test_ladder_json;
      ] );
  ]
