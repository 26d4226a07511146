open Olar_data
module Session = Olar_serve.Session
module Pool = Olar_serve.Pool
module Boundary = Olar_core.Boundary
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

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | "" -> loop (lineno + 1) acc
        | line -> (
          match Record.of_json_line line with
          | Ok r -> loop (lineno + 1) (r :: acc)
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
      in
      loop 1 [])

let constraints_of_record (r : Record.t) =
  {
    Boundary.antecedent_includes = r.antecedent_includes;
    consequent_includes = r.consequent_includes;
    allow_empty_antecedent = r.allow_empty_antecedent;
  }

(* Rebuild the exact call a record describes and issue it through
   [recorder]. Raises [Failure] on a structurally incomplete record
   (e.g. a find without minsup) — the caller turns that into a failed
   outcome rather than aborting the whole replay. *)
let dispatch recorder (r : Record.t) =
  let minsup () =
    match r.minsup with
    | Some s -> s
    | None -> failwith "record is missing minsup"
  in
  let minconf () =
    match r.minconf with
    | Some c -> c
    | None -> failwith "record is missing minconf"
  in
  let k () =
    match r.k with Some k -> k | None -> failwith "record is missing k"
  in
  let constraints = constraints_of_record r in
  match r.kind with
  | Record.Find_itemsets ->
    ignore
      (Recorder.itemset_ids ~containing:r.containing recorder
         ~minsup:(minsup ()))
  | Record.Count_itemsets ->
    ignore
      (Recorder.count_itemsets ~containing:r.containing recorder
         ~minsup:(minsup ()))
  | Record.Essential_rules ->
    ignore
      (Recorder.essential_rules ~containing:r.containing ~constraints recorder
         ~minsup:(minsup ()) ~minconf:(minconf ()))
  | Record.All_rules ->
    ignore
      (Recorder.all_rules ~containing:r.containing ~constraints recorder
         ~minsup:(minsup ()) ~minconf:(minconf ()))
  | Record.Single_consequent_rules ->
    ignore
      (Recorder.single_consequent_rules ~containing:r.containing recorder
         ~minsup:(minsup ()) ~minconf:(minconf ()))
  | Record.Support_for_k_itemsets ->
    ignore
      (Recorder.support_for_k_itemsets recorder ~containing:r.containing
         ~k:(k ()))
  | Record.Support_for_k_rules ->
    ignore
      (Recorder.support_for_k_rules recorder ~involving:r.containing
         ~minconf:(minconf ()) ~k:(k ()))
  | Record.Boundary ->
    ignore
      (Recorder.boundary ~constraints recorder ~target:r.containing
         ~minconf:(minconf ()))
  | Record.Append ->
    if r.delta_num_items <= 0 then failwith "append record is missing num_items";
    let delta = Database.of_lists ~num_items:r.delta_num_items r.delta in
    ignore (Recorder.append recorder delta)

(* ------------------------------------------------------------------ *)
(* Pool replay: the record key as a by-value request                  *)
(* ------------------------------------------------------------------ *)

let request_of_record (r : Record.t) =
  let minsup () =
    match r.minsup with
    | Some s -> Ok s
    | None -> Error "record is missing minsup"
  in
  let minconf () =
    match r.minconf with
    | Some c -> Ok c
    | None -> Error "record is missing minconf"
  in
  let k () =
    match r.k with Some k -> Ok k | None -> Error "record is missing k"
  in
  let ( let* ) = Result.bind in
  match r.kind with
  | Record.Find_itemsets ->
    let* minsup = minsup () in
    Ok (Pool.Find_itemsets { containing = r.containing; minsup })
  | Record.Count_itemsets ->
    let* minsup = minsup () in
    Ok (Pool.Count_itemsets { containing = r.containing; minsup })
  | Record.Essential_rules ->
    let* minsup = minsup () in
    let* minconf = minconf () in
    Ok
      (Pool.Essential_rules
         {
           containing = r.containing;
           constraints = constraints_of_record r;
           minsup;
           minconf;
         })
  | Record.All_rules ->
    let* minsup = minsup () in
    let* minconf = minconf () in
    Ok
      (Pool.All_rules
         {
           containing = r.containing;
           constraints = constraints_of_record r;
           minsup;
           minconf;
         })
  | Record.Single_consequent_rules ->
    let* minsup = minsup () in
    let* minconf = minconf () in
    Ok
      (Pool.Single_consequent_rules
         { containing = r.containing; minsup; minconf })
  | Record.Support_for_k_itemsets ->
    let* k = k () in
    Ok (Pool.Support_for_k_itemsets { containing = r.containing; k })
  | Record.Support_for_k_rules ->
    let* minconf = minconf () in
    let* k = k () in
    Ok (Pool.Support_for_k_rules { involving = r.containing; minconf; k })
  | Record.Boundary ->
    let* minconf = minconf () in
    Ok
      (Pool.Boundary
         {
           target = r.containing;
           constraints = constraints_of_record r;
           minconf;
         })
  | Record.Append ->
    if r.delta_num_items <= 0 then Error "append record is missing num_items"
    else Ok (Pool.Append (Database.of_lists ~num_items:r.delta_num_items r.delta))

let digest_response = function
  | Pool.R_items entries -> Some (Recorder.digest_items entries)
  | Pool.R_count c -> Some (Fnv.int Fnv.empty c)
  | Pool.R_rules rules -> Some (Recorder.digest_rules rules)
  | Pool.R_level level -> Some (Recorder.digest_level level)
  | Pool.R_entries entries -> Some (Recorder.digest_entries entries)
  | Pool.R_promoted { promoted; db_size } ->
    Some (Recorder.digest_promoted ~db_size promoted)
  | Pool.R_error _ -> None

let run ?(on_outcome = fun _ -> ()) session records =
  let captured = ref None in
  let recorder =
    Recorder.create ~emit:(fun r -> captured := Some r) session
  in
  let report = ref zero_report in
  List.iter
    (fun (r : Record.t) ->
      captured := None;
      let error = ref false in
      (try dispatch recorder r with _ -> error := true);
      let replayed = !captured in
      let ok =
        (not !error)
        &&
        match replayed with
        | Some (p : Record.t) -> Int64.equal p.Record.digest r.Record.digest
        | None -> false
      in
      let t = !report in
      report :=
        {
          total = t.total + 1;
          mismatches = (t.mismatches + if ok then 0 else 1);
          errors = (t.errors + if !error then 1 else 0);
          recorded_s = t.recorded_s +. r.Record.latency_s;
          replayed_s =
            (t.replayed_s
            +.
            match replayed with
            | Some p -> p.Record.latency_s
            | None -> 0.0);
          recorded_vertices = t.recorded_vertices + r.Record.vertices;
          replayed_vertices =
            (t.replayed_vertices
            + match replayed with Some p -> p.Record.vertices | None -> 0);
          recorded_heap_pops = t.recorded_heap_pops + r.Record.heap_pops;
          replayed_heap_pops =
            (t.replayed_heap_pops
            + match replayed with Some p -> p.Record.heap_pops | None -> 0);
        };
      on_outcome { record = r; replayed; ok })
    records;
  !report

let run_pool ?(on_response = fun _ _ ~ok:_ -> ()) pool records =
  (* Convert every record up front; a structurally incomplete record is
     an error outcome without executing anything. The valid requests
     go through {!Pool.run_timed}: {!Pool.submit} — the same continuous
     path the server's connection threads use — draining before each
     append. Pool appends publish without quiescing, and a capture's
     digests are only meaningful if every query replays on the same
     database state it was recorded against, so the replay re-imposes
     the capture's sequential epochs at append boundaries. *)
  let converted = List.map (fun r -> (r, request_of_record r)) records in
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
  let out = Pool.run_timed pool reqs in
  let idx = ref 0 in
  let report = ref zero_report in
  List.iter
    (fun ((r : Record.t), q) ->
      let resp, latency =
        match q with
        | Error e -> (Pool.R_error e, 0.0)
        | Ok _ ->
          let x = out.(!idx) in
          incr idx;
          x
      in
      let digest = digest_response resp in
      let error = Option.is_none digest in
      let ok =
        match digest with
        | Some d -> Int64.equal d r.Record.digest
        | None -> false
      in
      let t = !report in
      report :=
        {
          t with
          total = t.total + 1;
          mismatches = (t.mismatches + if ok then 0 else 1);
          errors = (t.errors + if error then 1 else 0);
          recorded_s = t.recorded_s +. r.Record.latency_s;
          replayed_s = t.replayed_s +. latency;
          recorded_vertices = t.recorded_vertices + r.Record.vertices;
          recorded_heap_pops = t.recorded_heap_pops + r.Record.heap_pops;
        };
      on_response r resp ~ok)
    converted;
  (* Per-query work attribution is impossible across domains (the obs
     cells are shared), so the replayed side reports the aggregate
     counter delta for the whole batch instead. *)
  {
    !report with
    replayed_vertices = value v_cell - v0;
    replayed_heap_pops = value h_cell - h0;
  }
