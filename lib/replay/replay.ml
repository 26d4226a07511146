module Pool = Olar_serve.Pool
module Engine = Olar_core.Engine
module Obs = Olar_obs.Obs
module Counter = Olar_util.Timer.Counter

type outcome = {
  record : Record.t;
  replayed : Record.t option;
  ok : bool;
}

type report = {
  total : int;
  mismatches : int;
  errors : int;
  recorded_s : float;
  replayed_s : float;
  recorded_vertices : int;
  replayed_vertices : int;
  recorded_heap_pops : int;
  replayed_heap_pops : int;
}

let zero_report =
  {
    total = 0;
    mismatches = 0;
    errors = 0;
    recorded_s = 0.0;
    replayed_s = 0.0;
    recorded_vertices = 0;
    replayed_vertices = 0;
    recorded_heap_pops = 0;
    replayed_heap_pops = 0;
  }

(* Splitting on '\n' leaves a final non-empty piece exactly when the
   last line has no terminator: the capture writer was killed between
   the line and its newline. That one piece may be dropped; any other
   malformed line fails the load. *)
let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc, None)
    | "" :: rest -> loop (lineno + 1) acc rest
    | line :: rest -> (
      match Record.of_json_line line with
      | Ok r -> loop (lineno + 1) (r :: acc) rest
      | Error _ when rest = [] ->
        Ok
          ( List.rev acc,
            Some (Printf.sprintf "%s:%d: torn final line ignored" path lineno) )
      | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
  in
  loop 1 [] (String.split_on_char '\n' text)

let request_of_record = Record.to_request

let tally t (r : Record.t) ~ok ~error ~replayed_s ~vertices ~heap_pops =
  {
    total = t.total + 1;
    mismatches = (t.mismatches + if ok then 0 else 1);
    errors = (t.errors + if error then 1 else 0);
    recorded_s = t.recorded_s +. r.latency_s;
    replayed_s = t.replayed_s +. replayed_s;
    recorded_vertices = t.recorded_vertices + r.vertices;
    replayed_vertices = t.replayed_vertices + vertices;
    recorded_heap_pops = t.recorded_heap_pops + r.heap_pops;
    replayed_heap_pops = t.replayed_heap_pops + heap_pops;
  }

let digest_ok (r : Record.t) = function
  | Some d -> Int64.equal d r.digest
  | None -> false

let run ?(on_outcome = fun _ -> ()) session records =
  let captured = ref None in
  let recorder = Recorder.create ~emit:(fun r -> captured := Some r) session in
  List.fold_left
    (fun report (r : Record.t) ->
      captured := None;
      let error =
        match Recorder.run recorder r with _ -> false | exception _ -> true
      in
      let replayed = !captured in
      let ok =
        digest_ok r (Option.map (fun (p : Record.t) -> p.digest) replayed)
      in
      let replayed_s, vertices, heap_pops =
        match replayed with
        | Some p -> (p.latency_s, p.vertices, p.heap_pops)
        | None -> (0.0, 0, 0)
      in
      on_outcome { record = r; replayed; ok };
      tally report r ~ok ~error ~replayed_s ~vertices ~heap_pops)
    zero_report records

let run_pool ?(on_response = fun _ _ ~ok:_ -> ()) pool records =
  (* Convert every record up front; a structurally incomplete record is
     an error outcome without executing anything. The valid requests
     go through {!Pool.run}: {!Pool.submit} — the same continuous
     path the server's connection threads use — draining before each
     append. Pool appends publish without quiescing, and a capture's
     digests are only meaningful if every query replays on the same
     database state it was recorded against, so the replay re-imposes
     the capture's sequential epochs at append boundaries. *)
  let converted = List.map (fun r -> (r, Record.to_request r)) records in
  let reqs =
    Array.of_list (List.filter_map (fun (_, q) -> Result.to_option q) converted)
  in
  let counter name =
    Option.map (fun ctx -> Obs.counter ctx name) (Engine.obs (Pool.engine pool))
  in
  let v_cell = counter "olar_query_vertices_visited_total" in
  let h_cell = counter "olar_query_heap_pops_total" in
  let value = function Some c -> Counter.value c | None -> 0 in
  let v0 = value v_cell and h0 = value h_cell in
  let out = Pool.run pool reqs in
  let idx = ref 0 in
  let report =
    List.fold_left
      (fun report ((r : Record.t), q) ->
        let resp, latency =
          match q with
          | Error e -> (Pool.R_error e, 0.0)
          | Ok _ ->
            let resp, (c : Pool.completion) = out.(!idx) in
            incr idx;
            (resp, c.latency_s)
        in
        let digest = Record.digest_response resp in
        let ok = digest_ok r digest in
        on_response r resp ~ok;
        tally report r ~ok ~error:(Option.is_none digest) ~replayed_s:latency
          ~vertices:0 ~heap_pops:0)
      zero_report converted
  in
  (* Per-query work attribution is impossible across domains (the obs
     cells are shared), so the replayed side reports the aggregate
     counter delta for the whole batch instead. *)
  {
    report with
    replayed_vertices = value v_cell - v0;
    replayed_heap_pops = value h_cell - h0;
  }
