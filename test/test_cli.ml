(* Integration tests of the olar CLI binary: drive the full
   gen -> preprocess -> query -> update pipeline through the real
   executable. Skipped gracefully when the binary is not alongside the
   test runner (e.g. when tests are run from an install tree). *)

let cli_path () =
  let dir = Filename.dirname Sys.executable_name in
  let candidate = Filename.concat dir "../bin/olar_cli.exe" in
  if Sys.file_exists candidate then Some candidate else None

(* Run a command, return (exit code, stdout lines). *)
let run_cli cli args =
  let out = Filename.temp_file "olar_cli" ".out" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let command =
        Printf.sprintf "%s %s > %s 2>&1" (Filename.quote cli)
          (String.concat " " (List.map Filename.quote args))
          (Filename.quote out)
      in
      let code = Sys.command command in
      let ic = open_in out in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      (code, List.rev !lines))

let with_cli f () =
  match cli_path () with
  | None -> Alcotest.skip ()
  | Some cli -> f cli

let contains lines needle =
  List.exists (fun l -> Helpers.contains_substring l needle) lines

let check_ok name (code, lines) =
  if code <> 0 then
    Alcotest.failf "%s exited %d: %s" name code (String.concat " | " lines)

let in_temp_dir f =
  let dir = Filename.temp_file "olar_cli" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_pipeline cli =
  in_temp_dir (fun dir ->
      let db = Filename.concat dir "data.db" in
      let lattice = Filename.concat dir "data.lattice" in
      let delta = Filename.concat dir "delta.db" in
      let updated = Filename.concat dir "updated.lattice" in
      let csv = Filename.concat dir "rules.csv" in
      check_ok "gen"
        (run_cli cli
           [ "gen"; "--name"; "T8.I3.D1K"; "--items"; "150"; "--seed"; "5"; "-o"; db ]);
      check_ok "preprocess"
        (run_cli cli
           [ "preprocess"; "-d"; db; "--max-itemsets"; "2000"; "-o"; lattice ]);
      check_ok "preprocess bytes"
        (run_cli cli
           [ "preprocess"; "-d"; db; "--max-bytes"; "300000"; "-o"; lattice ]);
      check_ok "preprocess fpgrowth"
        (run_cli cli
           [
             "preprocess"; "-d"; db; "--max-itemsets"; "2000"; "--miner";
             "fpgrowth"; "-o"; lattice;
           ]);
      let code, lines = run_cli cli [ "info"; "-l"; lattice ] in
      check_ok "info" (code, lines);
      Alcotest.(check bool) "info mentions itemsets" true
        (contains lines "primary itemsets");
      let code, lines =
        run_cli cli [ "items"; "-l"; lattice; "--minsup"; "0.02"; "--limit"; "3" ]
      in
      check_ok "items" (code, lines);
      Alcotest.(check bool) "items header" true (contains lines "itemsets");
      check_ok "rules"
        (run_cli cli
           [ "rules"; "-l"; lattice; "--minsup"; "0.01"; "--minconf"; "0.6" ]);
      check_ok "rules csv"
        (run_cli cli
           [
             "rules"; "-l"; lattice; "--minsup"; "0.01"; "--minconf"; "0.6";
             "--format"; "csv"; "--measures"; "-o"; csv;
           ]);
      let header = open_in csv in
      let first = input_line header in
      close_in header;
      Alcotest.(check bool) "csv header has lift" true
        (Helpers.contains_substring first "lift");
      check_ok "count"
        (run_cli cli
           [ "count"; "-l"; lattice; "--minsup"; "0.01"; "--minconf"; "0.6" ]);
      let code, lines = run_cli cli [ "support-for"; "-l"; lattice; "-k"; "10" ] in
      check_ok "support-for" (code, lines);
      Alcotest.(check bool) "support-for answers" true
        (contains lines "exist at minsup" || contains lines "fewer than");
      check_ok "gen delta"
        (run_cli cli
           [ "gen"; "--name"; "T8.I3.D200"; "--items"; "150"; "--seed"; "6"; "-o"; delta ]);
      let code, lines =
        run_cli cli [ "update"; "-l"; lattice; "--delta"; delta; "-o"; updated ]
      in
      check_ok "update" (code, lines);
      Alcotest.(check bool) "update reports fold" true (contains lines "folded");
      check_ok "condense"
        (run_cli cli
           [ "condense"; "-d"; db; "--minsup"; "0.02"; "--kind"; "maximal" ]);
      check_ok "direct sampling"
        (run_cli cli
           [
             "direct"; "-d"; db; "--minsup"; "0.02"; "--minconf"; "0.7";
             "--miner"; "sampling";
           ]);
      (* named-basket workflow *)
      let baskets = Filename.concat dir "shop.baskets" in
      let oc = open_out baskets in
      output_string oc "beer, chips\nbeer, chips, salsa\nbeer, chips\nbread\n";
      close_out oc;
      let named_db = Filename.concat dir "shop.db" in
      let vocab = Filename.concat dir "shop.vocab" in
      let named_lattice = Filename.concat dir "shop.lattice" in
      check_ok "baskets"
        (run_cli cli [ "baskets"; "-i"; baskets; "-o"; named_db; "--vocab-out"; vocab ]);
      check_ok "preprocess named"
        (run_cli cli [ "preprocess"; "-d"; named_db; "--support"; "0.2"; "-o"; named_lattice ]);
      let code, lines =
        run_cli cli
          [
            "rules"; "-l"; named_lattice; "--minsup"; "0.4"; "--minconf"; "0.9";
            "--vocab"; vocab;
          ]
      in
      check_ok "named rules" (code, lines);
      Alcotest.(check bool) "rules print names" true (contains lines "beer"))

let test_error_paths cli =
  in_temp_dir (fun dir ->
      let db = Filename.concat dir "data.db" in
      check_ok "gen"
        (run_cli cli
           [ "gen"; "--name"; "T5.I2.D200"; "--items"; "50"; "--seed"; "1"; "-o"; db ]);
      (* bad dataset name *)
      let code, _ = run_cli cli [ "gen"; "--name"; "bogus"; "-o"; db ] in
      Alcotest.(check bool) "bad name rejected" true (code <> 0);
      (* preprocess with both budgets *)
      let lattice = Filename.concat dir "l" in
      let code, _ =
        run_cli cli
          [
            "preprocess"; "-d"; db; "--max-itemsets"; "10"; "--support"; "0.1";
            "-o"; lattice;
          ]
      in
      Alcotest.(check bool) "conflicting budgets rejected" true (code <> 0);
      (* query below the primary threshold exits 2 *)
      check_ok "preprocess"
        (run_cli cli [ "preprocess"; "-d"; db; "--support"; "0.1"; "-o"; lattice ]);
      let code, lines =
        run_cli cli [ "items"; "-l"; lattice; "--minsup"; "0.01" ]
      in
      Alcotest.(check int) "below-threshold exit code" 2 code;
      Alcotest.(check bool) "explains the limitation" true
        (contains lines "primary threshold");
      (* malformed lattice file *)
      let bogus = Filename.concat dir "bogus.lattice" in
      let oc = open_out bogus in
      output_string oc "not a lattice\n";
      close_out oc;
      let code, _ = run_cli cli [ "info"; "-l"; bogus ] in
      Alcotest.(check bool) "malformed rejected" true (code <> 0))

let test_domains_flag cli =
  in_temp_dir (fun dir ->
      let db = Filename.concat dir "data.db" in
      let lattice = Filename.concat dir "l" in
      let log = Filename.concat dir "queries.jsonl" in
      check_ok "gen"
        (run_cli cli
           [ "gen"; "--name"; "T5.I2.D200"; "--items"; "50"; "--seed"; "2"; "-o"; db ]);
      (* zero, negative and unparsable counts are cmdliner usage errors
         (exit 124), not silent clamps deep inside the mining layer *)
      List.iter
        (fun bad ->
          let code, lines =
            run_cli cli
              [
                "preprocess"; "-d"; db; "--support"; "0.05";
                "--domains=" ^ bad; "-o"; lattice;
              ]
          in
          Alcotest.(check int) ("--domains=" ^ bad ^ " rejected") 124 code;
          Alcotest.(check bool) "message names the count" true
            (contains lines "domain count"))
        [ "0"; "-3"; "two" ];
      (* oversubscription warns but proceeds *)
      let code, lines =
        run_cli cli
          [
            "preprocess"; "-d"; db; "--support"; "0.05"; "--domains"; "64";
            "-o"; lattice;
          ]
      in
      check_ok "preprocess with 64 domains" (code, lines);
      Alcotest.(check bool) "warns about oversubscription" true
        (contains lines "recommended domain count");
      (* capture a small log, then replay it through a serving pool *)
      check_ok "record queries"
        (run_cli cli
           [ "items"; "-l"; lattice; "--minsup"; "0.05"; "--record"; log ]);
      let code, lines =
        run_cli cli [ "replay"; "-l"; lattice; log; "--domains"; "4" ]
      in
      check_ok "pool replay" (code, lines);
      Alcotest.(check bool) "reports the pool width" true
        (contains lines "pool: 4 domains");
      Alcotest.(check bool) "zero mismatches" true
        (contains lines "0 mismatches");
      (* tracing is sharded per domain now, so a traced pool replay
         works and merges every domain's spans into one file *)
      let trace = Filename.concat dir "trace.jsonl" in
      let code, lines =
        run_cli cli
          [ "replay"; "-l"; lattice; log; "--domains"; "2"; "--trace"; trace ]
      in
      check_ok "traced pool replay" (code, lines);
      Alcotest.(check bool) "still zero mismatches" true
        (contains lines "0 mismatches");
      let ic = open_in trace in
      let n = ref 0 in
      let tagged = ref true in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then begin
             incr n;
             if not (Helpers.contains_substring line "\"domain\"") then
               tagged := false
           end
         done
       with End_of_file -> close_in ic);
      Alcotest.(check bool) "trace file has spans" true (!n > 0);
      Alcotest.(check bool) "every span is domain-tagged" true !tagged)

(* A capture log committed as a fixture pins the digest contract across
   refactors of the capture and replay code: it must replay with zero
   mismatches, serially and through a pool, on a lattice regenerated
   here deterministically. It was recorded against that lattice with
   --record by the items/count/rules/support-for commands (text output,
   cache budgets 0 and 8 MiB, with and without --containing, --all,
   --single-consequent and --antecedent/--consequent constraints). *)
let test_committed_capture_replays cli =
  in_temp_dir (fun dir ->
      let db = Filename.concat dir "data.db" in
      let lattice = Filename.concat dir "data.lattice" in
      let log =
        Filename.concat (Filename.dirname Sys.executable_name)
          "fixtures/capture_v1.jsonl"
      in
      check_ok "gen"
        (run_cli cli
           [ "gen"; "--name"; "T8.I4.D400"; "--items"; "30"; "--seed"; "5"; "-o"; db ]);
      check_ok "preprocess"
        (run_cli cli [ "preprocess"; "-d"; db; "--support"; "0.05"; "-o"; lattice ]);
      List.iter
        (fun extra ->
          let code, lines = run_cli cli ([ "replay"; "-l"; lattice; log ] @ extra) in
          check_ok "replay" (code, lines);
          Alcotest.(check bool)
            ("all 13 replay clean " ^ String.concat " " extra)
            true
            (contains lines "13 ok, 0 mismatches (0 errors)"))
        [ []; [ "--domains"; "2" ] ])

(* At --cache-mb 0 a find runs on the session's engine passthrough; it
   must still open its "itemsets" query span, like every other kind. *)
let test_items_trace_span cli =
  in_temp_dir (fun dir ->
      let db = Filename.concat dir "data.db" in
      let lattice = Filename.concat dir "data.lattice" in
      let trace = Filename.concat dir "trace.jsonl" in
      check_ok "gen"
        (run_cli cli
           [ "gen"; "--name"; "T5.I2.D200"; "--items"; "50"; "--seed"; "2"; "-o"; db ]);
      check_ok "preprocess"
        (run_cli cli [ "preprocess"; "-d"; db; "--support"; "0.05"; "-o"; lattice ]);
      check_ok "traced items"
        (run_cli cli
           [
             "items"; "-l"; lattice; "--minsup"; "0.05"; "--cache-mb"; "0";
             "--trace"; trace;
           ]);
      let spans = In_channel.with_open_bin trace In_channel.input_all in
      Alcotest.(check bool)
        "query.itemsets span emitted" true
        (Helpers.contains_substring spans {|"name":"query.itemsets"|}))

let suites =
  [
    ( "cli",
      [
        Alcotest.test_case "full pipeline" `Quick (with_cli test_pipeline);
        Alcotest.test_case "error paths" `Quick (with_cli test_error_paths);
        Alcotest.test_case "--domains validation and pool replay" `Quick
          (with_cli test_domains_flag);
        Alcotest.test_case "committed capture replays clean" `Quick
          (with_cli test_committed_capture_replays);
        Alcotest.test_case "items --cache-mb 0 opens its query span" `Quick
          (with_cli test_items_trace_span);
      ] );
  ]
