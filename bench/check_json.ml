(* Validates a bench --json document: parses it with the same Jsonx the
   harness wrote it with and checks the structure the downstream
   tooling relies on. Exit 0 on success, 1 with a message otherwise.
   Wired into the @bench-json alias so CI fails on malformed output. *)

module J = Olar_obs.Jsonx

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_json: " ^ m); exit 1) fmt

let require what = function Some v -> v | None -> fail "missing %s" what

let number what v = require what (Option.bind v J.number)

let () =
  let path = match Sys.argv with [| _; p |] -> p | _ -> fail "usage: check_json FILE" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc = match J.of_string text with Ok v -> v | Error e -> fail "%s: %s" path e in
  let version = number "schema_version" (J.member "schema_version" doc) in
  if version <> 1.0 then fail "unsupported schema_version %g" version;
  ignore (require "scale" (Option.bind (J.member "scale" doc) J.to_str));
  let experiments = require "experiments" (J.member "experiments" doc) in
  let qps = require "experiments.qps" (J.member "qps" experiments) in
  ignore (number "qps.lattice.vertices" (J.path [ "lattice"; "vertices" ] qps));
  let scenarios =
    require "qps.scenarios"
      (Option.bind (J.member "scenarios" qps) J.to_list)
  in
  if scenarios = [] then fail "qps.scenarios is empty";
  List.iter
    (fun s ->
      let name =
        require "scenario.name" (Option.bind (J.member "name" s) J.to_str)
      in
      let check what v =
        let x = number (name ^ "." ^ what) v in
        if x < 0.0 then fail "%s.%s is negative" name what
      in
      check "qps" (J.member "qps" s);
      check "queries" (J.member "queries" s);
      check "latency.p50_us" (J.path [ "latency"; "p50_us" ] s);
      check "latency.p99_us" (J.path [ "latency"; "p99_us" ] s);
      check "latency.samples" (J.path [ "latency"; "samples" ] s);
      check "work.total" (J.path [ "work"; "total" ] s))
    scenarios;
  (* session is optional (only present when that experiment ran), but
     when present each scenario must carry both sides of the cached vs
     uncached comparison plus the cache accounting. *)
  (match J.member "session" experiments with
  | None -> ()
  | Some session ->
    let scenarios =
      require "session.scenarios"
        (Option.bind (J.member "scenarios" session) J.to_list)
    in
    if scenarios = [] then fail "session.scenarios is empty";
    List.iter
      (fun s ->
        let name =
          require "session scenario.name"
            (Option.bind (J.member "name" s) J.to_str)
        in
        let check what v =
          let x = number ("session." ^ name ^ "." ^ what) v in
          if x < 0.0 then fail "session.%s.%s is negative" name what
        in
        check "cached.qps" (J.path [ "cached"; "qps" ] s);
        check "cached.queries" (J.path [ "cached"; "queries" ] s);
        check "uncached.qps" (J.path [ "uncached"; "qps" ] s);
        check "uncached.queries" (J.path [ "uncached"; "queries" ] s);
        check "speedup" (J.member "speedup" s);
        check "cache.hits" (J.path [ "cache"; "hits" ] s);
        check "cache.misses" (J.path [ "cache"; "misses" ] s);
        check "cache.refines" (J.path [ "cache"; "refines" ] s);
        check "cache.evictions" (J.path [ "cache"; "evictions" ] s);
        check "cache.resident_bytes" (J.path [ "cache"; "resident_bytes" ] s))
      scenarios);
  (* dispatch is optional (only present when the dispatch microbench
     merged its sweep in); when present each point is one (mode,
     domains) cell of the submit sweep. *)
  (match J.member "dispatch" experiments with
  | None -> ()
  | Some dispatch ->
    let requests = number "dispatch.requests" (J.member "requests" dispatch) in
    if requests < 1.0 then fail "dispatch.requests < 1";
    let points =
      require "dispatch.points"
        (Option.bind (J.member "points" dispatch) J.to_list)
    in
    if points = [] then fail "dispatch.points is empty";
    List.iter
      (fun p ->
        let mode =
          require "dispatch point.mode"
            (Option.bind (J.member "mode" p) J.to_str)
        in
        let domains =
          number ("dispatch." ^ mode ^ ".domains") (J.member "domains" p)
        in
        if domains < 1.0 then fail "dispatch.%s.domains < 1" mode;
        let check what v =
          let x = number ("dispatch." ^ mode ^ "." ^ what) v in
          if x < 0.0 then fail "dispatch.%s.%s is negative" mode what
        in
        check "qps" (J.member "qps" p);
        check "queries" (J.member "queries" p);
        check "seconds" (J.member "seconds" p))
      points);
  (* fig10 is optional (only present when that experiment ran), but when
     present its points must carry the rule/work fields. *)
  (match J.member "fig10" experiments with
  | None -> ()
  | Some fig10 ->
    let points =
      require "fig10.points" (Option.bind (J.member "points" fig10) J.to_list)
    in
    List.iter
      (fun p ->
        ignore (number "fig10.point.rules" (J.member "rules" p));
        ignore (number "fig10.point.work" (J.member "work" p));
        ignore (number "fig10.point.seconds" (J.member "seconds" p)))
      points);
  Printf.printf "check_json: %s ok (%d scenarios)\n" path (List.length scenarios)
