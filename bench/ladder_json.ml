(* Assembles a ladder-count document from traced perfbench runs.

   Usage: ladder_json.exe OUT.json WORKLOAD=RUN.out ...

   Each RUN.out is the stdout of one
   [python3 perfbench/run.py --workload WORKLOAD --seed 1 --trace 1],
   whose last line is the run's JSON result. OUT.json keeps the
   deterministic 1-domain counts of the ladder — the ones the ladder
   itself checks for exact repeats — one point per (workload, metric),
   as a counts document (counts.mli). compare_json gates these points
   exactly against the committed BENCH_ladder.json ([make perfbench]).

   [pool.retired_after_drain] is left out: it is read at nproc domains
   right after a drain, outside the ladder's repeat check, so a worker
   that has not yet re-adopted the snapshot can make it vary. *)

module Jsonx = Olar_obs.Jsonx

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("ladder_json: " ^ m); exit 1) fmt

let counts =
  [
    "setup.mine_candidates"; "setup.db_passes"; "setup.lattice_vertices";
    "setup.lattice_bytes"; "kernel.minor_words_per_req";
    "kernel.vertices_per_req"; "kernel.heap_pops_per_req";
    "engine.minor_words_per_req"; "session.b0.minor_words_per_req";
    "session.b8.minor_words_per_req"; "session.served_frac";
    "session.refine_frac"; "session.evictions"; "pool.minor_words_per_req";
  ]

(* The run's result: the last non-empty line of its stdout. *)
let result path =
  let lines =
    In_channel.with_open_bin path In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  match List.rev lines with
  | [] -> fail "%s is empty" path
  | last :: _ -> (
    match Jsonx.of_string last with
    | Ok v -> v
    | Error e -> fail "%s: last line is not a run result: %s" path e)

let points (workload, path) =
  let doc = result path in
  if Jsonx.member "correct" doc <> Some (Jsonx.Bool true) then
    fail "%s: the %s run is not correct" path workload;
  List.map
    (fun metric ->
      match
        Option.bind (Jsonx.path [ "metrics"; metric; "value" ] doc) Jsonx.number
      with
      | Some value -> { Counts.workload; metric; value }
      | None -> fail "%s: no %s (was the run traced?)" path metric)
    counts

let () =
  let out, runs =
    match Array.to_list Sys.argv with
    | _ :: out :: (_ :: _ as runs) ->
      ( out,
        List.map
          (fun arg ->
            match String.index_opt arg '=' with
            | Some i ->
              ( String.sub arg 0 i,
                String.sub arg (i + 1) (String.length arg - i - 1) )
            | None -> fail "expected WORKLOAD=RUN.out, got %S" arg)
          runs )
    | _ -> fail "usage: ladder_json OUT.json WORKLOAD=RUN.out ..."
  in
  let points = List.concat_map points runs in
  Counts.write out points;
  Printf.printf "ladder_json: wrote %d counts to %s\n" (List.length points) out
