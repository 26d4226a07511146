(* The serving benchmark: one workload, one run.

     olarbench --workload NAME --seed N --seconds S --trace 0|1
               --olar PATH/olar_cli.exe --work DIR

   Generates the workload's database from the seed, sets up the real
   `olar preprocess` + `olar serve` pipeline (timed, several times),
   computes the expected digest of every request serially in process,
   then drives the server from this process and checks every reply.

   --trace 0 measures the end-to-end metrics. --trace 1 measures the
   per-layer ladder: the in-process rungs (Ladder) and the wire rung,
   whose client-side spans are kept in memory and written to DIR at the
   end. Human-readable lines go first; the last line of stdout is the
   JSON result. Exits 1 on any digest mismatch, failed determinism
   check or benchmark error. *)

module Engine = Olar_core.Engine
module Jsonx = Olar_obs.Jsonx

let warm_s = 1.0

let info fmt = Printf.printf (fmt ^^ "\n%!")

type setup = {
  total_s : float;  (** preprocess + serve start until its first 200 *)
  preprocess_s : float;  (** as `olar preprocess` reports it *)
  ready_s : float;
  output : string;  (** `olar preprocess` stdout *)
}

(* Parse the "serving on http://HOST:PORT ..." banner. *)
let port_of_log path =
  let text = try Proc.read_file path with Sys_error _ -> "" in
  match String.index_opt text '\n' with
  | None -> None
  | Some _ -> Some (Proc.find_int ~after:"serving on http://127.0.0.1:" text)

let start_server ~olar ~work ~lattice (spec : Workload.spec) =
  let log = Filename.concat work "serve.log" in
  let pid =
    Proc.spawn ~log olar
      [ "serve"; "-l"; lattice; "--port"; "0"; "--cache-mb"; string_of_int spec.cache_mb ]
  in
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    if Unix.gettimeofday () > deadline then failwith "olar serve did not become ready";
    match port_of_log log with
    | None ->
      Unix.sleepf 0.001;
      wait ()
    | Some port -> (
      match
        Olar_net.Client.get ~timeout_s:5.0 ~url:(Printf.sprintf "http://127.0.0.1:%d" port) "/healthz"
      with
      | Ok (200, _) -> port
      | _ ->
        Unix.sleepf 0.001;
        wait ())
  in
  (pid, wait ())

let setup ~olar ~work ~db ~lattice (spec : Workload.spec) =
  let t0 = Olar_util.Timer.monotonic_s () in
  let output =
    Proc.run ~log:(Filename.concat work "preprocess.log") olar
      [ "preprocess"; "-d"; db; "--support"; string_of_float spec.support; "-o"; lattice ]
  in
  let t1 = Olar_util.Timer.monotonic_s () in
  let pid, port = start_server ~olar ~work ~lattice spec in
  let t2 = Olar_util.Timer.monotonic_s () in
  (* "..., ~3594 KiB, 0.57s" closes the first line *)
  let first = List.hd (String.split_on_char '\n' output) in
  let i = String.rindex first ' ' in
  let preprocess_s =
    float_of_string (String.sub first (i + 1) (String.length first - i - 2))
  in
  ({ total_s = t2 -. t0; preprocess_s; ready_s = t2 -. t1; output }, pid, port)

let json_result ~correct ~attempted ~failed metrics =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool correct);
         ("attempted", Jsonx.Int attempted);
         ("failed", Jsonx.Int failed);
         ( "metrics",
           Jsonx.Obj
             (List.map
                (fun (name, v, unit) ->
                  (name, Jsonx.Obj [ ("value", Jsonx.Float v); ("unit", Jsonx.Str unit) ]))
                metrics) );
       ])

let us x = x *. 1e6

let main ~workload ~seed ~seconds ~trace ~olar ~work =
  let spec =
    match Workload.find workload with
    | Some s -> s
    | None -> failwith ("unknown workload " ^ workload)
  in
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tag = Printf.sprintf "%s-%d" spec.name seed in
  let db = Filename.concat work (tag ^ ".db") in
  let lattice = Filename.concat work (tag ^ ".lattice") in
  ignore
    (Proc.run ~log:(Filename.concat work "gen.log") olar
       [ "gen"; "--name"; spec.dataset; "--seed"; string_of_int Workload.dataset_seed; "-o"; db ]);
  (* set-up, repeated; the last server stays up for the measurement *)
  let setups = ref [] and server = ref None in
  for i = 1 to spec.setups do
    let s, pid, port = setup ~olar ~work ~db ~lattice spec in
    setups := s :: !setups;
    if i < spec.setups then Proc.stop pid else server := Some (pid, port)
  done;
  let pid, port = Option.get !server in
  let med f = Samples.median (List.map f !setups) in
  let setup_s = med (fun s -> s.total_s) in
  let base = Engine.load lattice in
  let shape = Engine.stats base in
  info "%s seed %d: %s at %.2f%%: %d vertices, %d edges, %d bytes, depth %d" spec.name seed
    spec.dataset (100.0 *. spec.support) shape.Olar_core.Lattice.Stats.vertices
    shape.Olar_core.Lattice.Stats.edges shape.Olar_core.Lattice.Stats.bytes
    shape.Olar_core.Lattice.Stats.depth;
  info "setup_s %.4f (median of %d: %s)" setup_s spec.setups
    (String.concat " " (List.rev_map (fun s -> Printf.sprintf "%.3f" s.total_s) !setups));
  let open_params =
    match spec.loop with
    | Workload.Open { rate; append_period_s } -> Some (rate, append_period_s)
    | Workload.Closed -> None
  in
  (* appends each window sends; a traced run has two windows *)
  let window_s = if trace then Float.max 1.0 (seconds /. 2.0) else seconds in
  let window_appends =
    match open_params with
    | Some (_, period) -> int_of_float (Float.ceil (window_s /. period))
    | None -> 0
  in
  let num_appends =
    if trace then max 8 (2 * window_appends) else max spec.probe_appends window_appends
  in
  let wl = Workload.build spec ~seed ~num_appends (Engine.lattice base) in
  let t_oracle = Olar_util.Timer.start () in
  let oracle = Oracle.create base wl in
  info "oracle: %d distinct read keys, %d appends folded serially in %.2fs"
    (Array.length wl.keys) (Array.length wl.appends) (Olar_util.Timer.elapsed_s t_oracle);
  let client = Wire.create wl oracle ~port in
  let appends_done = ref 0 in
  let window ~seconds =
    match open_params with
    | Some (rate, period) ->
      let appends = if client.recording then window_appends else 0 in
      let dt = Wire.open_loop client ~seconds ~rate ~period ~first:!appends_done ~appends in
      appends_done := !appends_done + appends;
      dt
    | None -> Wire.closed client ~seconds
  in
  let queries_total s = Wire.prom_sum s.Wire.metrics "olar_http_queries_total" in
  ignore (window ~seconds:warm_s);
  client.recording <- true;
  let result =
    if not trace then begin
      let s0 = Wire.scrape client in
      let elapsed = window ~seconds in
      let s1 = Wire.scrape_settled client ~served:client.served in
      let rss_mb = float_of_int (Proc.peak_rss_kib pid) /. 1024.0 in
      let ok_reads = client.ok_reads and lat = Samples.sorted client.lat in
      let d name = Wire.prom_sum s1.metrics name -. Wire.prom_sum s0.metrics name in
      let queries = queries_total s1 -. queries_total s0 in
      info "reads: %d ok of %d attempted, %d failed in %.2fs; %d latency samples" ok_reads
        client.attempted client.failed elapsed (Array.length lat);
      info "whole window: qps %.1f, p50 %.1fus, p99 %.1fus" (float_of_int ok_reads /. elapsed)
        (us (Samples.rank lat 0.5)) (us (Samples.rank lat 0.99));
      info "shares: cache_served %.4f, resp_bytes %.0f, append share %.4f, gen_lag_p99_us %.1f"
        (d "olar_cache_hits_total" /. queries)
        (float_of_int client.resp_bytes /. float_of_int (max 1 ok_reads))
        (float_of_int (Samples.count client.append_lat)
        /. float_of_int (max 1 (ok_reads + Samples.count client.append_lat)))
        (if Samples.count client.lag = 0 then 0.0 else us (Samples.percentile client.lag 0.99));
      (* A noisy neighbour can slow a whole second; the median over 1 s
         slices of each slice's exact figures is not moved by a few. *)
      let slices = Wire.slices client ~seconds in
      if open_params = None then
        Wire.append_probe client ~first:0 ~count:spec.probe_appends ~reads:8;
      let app = client.append_lat in
      info "%d append round trips (ms, in order): %s" (Samples.count app)
        (String.concat " "
           (List.init (Samples.count app) (fun i -> Printf.sprintf "%.1f" (Samples.get app i *. 1e3))));
      let over f = Samples.median (Array.to_list (Array.map f slices)) in
      info "per 1 s slice (reads, p50 us, p99 us): %s"
        (String.concat " "
           (Array.to_list
              (Array.map (fun (n, a, b) -> Printf.sprintf "(%.0f %.0f %.0f)" n (us a) (us b)) slices)));
      [
        ("setup_s", setup_s, "s");
        ("qps", float_of_int ok_reads /. elapsed, "1/s");
        ("lat_p50_us", us (over (fun (_, p, _) -> p)), "us");
        ("lat_p99_us", us (over (fun (_, _, p) -> p)), "us");
        ("append_p50_us", us (Samples.percentile app 0.50), "us");
        ("server_rss_mb", rss_mb, "MB");
      ]
    end
    else begin
      let request r =
        match Olar_replay.Replay.request_of_record r with
        | Ok q -> q
        | Error e -> failwith e
      in
      let reqs =
        Array.map (fun k -> request wl.keys.(k)) (Workload.interleaved wl ~len:spec.ladder_reads)
      in
      let appends = Array.map request (Array.sub wl.appends 0 8) in
      (* the in-process rungs run while the server idles *)
      let ladder = Ladder.run ~base ~budget_bytes:(spec.cache_mb * 1024 * 1024) ~reqs ~appends in
      List.iter (fun f -> info "ladder counts did not repeat: %s" f) ladder.repeat_failures;
      client.mismatches <-
        List.map (fun f -> "determinism: " ^ f) ladder.repeat_failures @ client.mismatches;
      (* wire rung: an untraced window, then a traced one *)
      ignore (window ~seconds:window_s);
      let untraced_p50 = Samples.percentile client.lat 0.5 in
      Wire.reset_stats client;
      client.tracing <- true;
      let s0 = Wire.scrape_settled client ~served:client.served in
      ignore (window ~seconds:window_s);
      let s1 = Wire.scrape_settled client ~served:client.served in
      let spans = Filename.concat work (tag ^ ".spans.jsonl") in
      Wire.write_spans client spans;
      let phase name =
        let c = Wire.phase s1 name "count" -. Wire.phase s0 name "count" in
        us ((Wire.phase s1 name "sum_s" -. Wire.phase s0 name "sum_s") /. Float.max 1.0 c)
      in
      let phases =
        List.map
          (fun p -> ("wire." ^ p ^ "_us", phase p, "us"))
          [ "parse"; "queue"; "dispatch"; "execute"; "deliver"; "write" ]
      in
      let phase_sum = List.fold_left (fun a (_, v, _) -> a +. v) 0.0 phases in
      let d name = Wire.prom_sum s1.metrics name -. Wire.prom_sum s0.metrics name in
      let queries = Float.max 1.0 (queries_total s1 -. queries_total s0) in
      let traced_p50 = Samples.percentile client.lat 0.5 in
      info "wire: %d traced spans written to %s" (List.length client.spans) spans;
      let setup_line = (List.hd !setups).output in
      [
        ("setup.preprocess_s", med (fun s -> s.preprocess_s), "s");
        ("setup.ready_s", med (fun s -> s.ready_s), "s");
        ("setup.mine_candidates", float_of_int (Proc.find_int ~after:"candidates=" setup_line), "count");
        ("setup.db_passes", float_of_int (Proc.find_int ~after:"passes=" setup_line), "count");
        ("setup.lattice_vertices", float_of_int shape.Olar_core.Lattice.Stats.vertices, "count");
        ("setup.lattice_bytes", float_of_int shape.Olar_core.Lattice.Stats.bytes, "bytes");
      ]
      @ ladder.metrics @ phases
      @ [
          ("wire.lat_p50_us", us traced_p50, "us");
          ("wire.trace_overhead_us", us (traced_p50 -. untraced_p50), "us");
          ("wire.outside_us", us (Samples.mean client.lat) -. phase_sum, "us");
          ( "wire.resp_bytes",
            float_of_int client.resp_bytes /. float_of_int (max 1 client.ok_reads),
            "bytes" );
          ("wire.cache_served_frac", d "olar_cache_hits_total" /. queries, "fraction");
          ("wire.vertices_per_req", d "olar_query_vertices_visited_total" /. queries, "count");
          ("wire.gc_minor_per_kreq", d "olar_gc_minor_total" *. 1000.0 /. queries, "count");
          ( "client.gen_lag_p99_us",
            (if Samples.count client.lag = 0 then 0.0 else us (Samples.percentile client.lag 0.99)),
            "us" );
        ]
    end
  in
  Wire.check_deferred client;
  Wire.close client;
  Proc.stop pid;
  List.iter (fun m -> info "MISMATCH %s" m) (List.rev client.mismatches);
  let correct = client.mismatches = [] in
  print_endline
    (json_result ~correct ~attempted:client.attempted ~failed:client.failed result);
  if not correct then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let olar = ref "" and work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME analyst, scan or ingest");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--olar", Arg.Set_string olar, "PATH the olar CLI executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for inputs and logs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "olarbench --workload NAME --seed N --seconds S --trace 0|1 --olar PATH --work DIR";
  if !olar = "" || !work = "" || !workload = "" then begin
    prerr_endline "olarbench: --workload, --olar and --work are required";
    exit 2
  end;
  try
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~olar:!olar
      ~work:!work
  with e ->
    Printf.eprintf "olarbench: %s\n%!" (Printexc.to_string e);
    exit 1
