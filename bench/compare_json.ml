(* Exact-count gate over two counts documents (see counts.mli).

   Usage: compare_json.exe OLD.json NEW.json

   OLD is a committed baseline (BENCH_ladder.json, the perfbench ladder
   counts that ladder_json assembles, or BENCH_T10I4.json, the bench
   harness's counts experiment) and NEW a fresh document of the same
   kind. Every point is deterministic work (vertices, heap pops, minor
   words, cache outcomes), so every point of OLD must be present in NEW
   with an equal value: any drift fails, naming the workload and
   metric, and silently dropping a point fails too. Points only in NEW
   are listed but not gated. Minor words depend on the compiler, so
   when OLD and NEW disagree on the recorded OCaml version the gate
   stops with a re-record error instead of a list of drifts.

   Exit 0 when every point of OLD holds, 1 on a drift, a missing point
   or a version mismatch, 2 on unreadable input. *)

let read path =
  match Counts.read path with
  | Ok doc -> doc
  | Error e ->
    prerr_endline ("compare_json: " ^ e);
    exit 2

let label (p : Counts.point) = p.workload ^ "/" ^ p.metric

let () =
  let old_path, new_path =
    match Sys.argv with
    | [| _; o; n |] -> (o, n)
    | _ ->
      prerr_endline "compare_json: usage: compare_json OLD.json NEW.json";
      exit 2
  in
  let old_version, old_points = read old_path
  and new_version, new_points = read new_path in
  (match (old_version, new_version) with
  | Some o, n when Some o <> n ->
    Printf.eprintf
      "compare_json: %s was recorded under OCaml %s but %s under %s; \
       minor-word counts depend on the compiler, so re-record the baseline \
       (cp %s %s)\n"
      old_path o new_path
      (Option.value n ~default:"an unknown version")
      new_path old_path;
    exit 1
  | _ -> ());
  let fresh = List.map (fun p -> (label p, p.Counts.value)) new_points in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Printf.printf "%-52s %14s %14s\n" "series" "old" "new";
  List.iter
    (fun (p : Counts.point) ->
      let name = label p in
      match List.assoc_opt name fresh with
      | None ->
        Printf.printf "%-52s %14g %14s\n" name p.value "missing";
        fail "%s: missing from %s" name new_path
      | Some v ->
        Printf.printf "%-52s %14g %14g\n" name p.value v;
        if v <> p.value then
          fail "%s: %.17g -> %.17g (gated exactly)" name p.value v)
    old_points;
  List.iter
    (fun (name, v) ->
      if not (List.exists (fun p -> label p = name) old_points) then
        Printf.printf "%-52s %14s %14g (new series, not gated)\n" name "-" v)
    fresh;
  match List.rev !failures with
  | [] -> Printf.printf "OK: %d series exact\n" (List.length old_points)
  | fs ->
    List.iter (fun f -> prerr_endline ("REGRESSION " ^ f)) fs;
    exit 1
