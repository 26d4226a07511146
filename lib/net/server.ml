open Olar_data
module Pool = Olar_serve.Pool
module Record = Olar_replay.Record
module Fnv = Olar_replay.Fnv
module Jsonx = Olar_obs.Jsonx
module Metrics = Olar_obs.Metrics
module Exposition = Olar_obs.Exposition
module Obs = Olar_obs.Obs
module Engine = Olar_core.Engine
module Rule = Olar_core.Rule
module Timer = Olar_util.Timer
module Counter = Timer.Counter
module Window = Olar_obs.Window
module Runtime_obs = Olar_obs.Runtime_obs
module Trace = Olar_obs.Trace

type config = {
  host : string;
  port : int;
  backlog : int;
  queue_depth : int;
  deadline_s : float;
  max_body_bytes : int;
  record : string option;
  trace_sample : int;
  slow_s : float;
  slow_ring : int;
  slo_p99_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    backlog = 64;
    queue_depth = 256;
    deadline_s = 0.0;
    max_body_bytes = 4 * 1024 * 1024;
    record = None;
    trace_sample = 0;
    slow_s = infinity;
    slow_ring = 64;
    slo_p99_s = 0.0;
  }

(* The six attribution phases of one wire request, in wall-clock order.
   They tile parse start to bytes out with no gap:
   parse:    HTTP parse + query-key decode on the connection thread
   queue:    arrival to the request being placed in a pool ring (the
             wait for the pool's intake lock, e.g. behind a fold)
   dispatch: placed to a pool domain starting execution (shard wait +
             wakeup; the pool histograms the same window as
             olar_pool_dispatch_wait_seconds)
   execute:  the pool's claim-to-completion service time
   deliver:  execution done to the connection thread waking
   write:    rendering + writing the response bytes *)
let phase_names = [| "parse"; "queue"; "dispatch"; "execute"; "deliver"; "write" |]

(* A JSON object keyed by phase name, [f i] the value of phase [i]. *)
let per_phase f =
  Jsonx.Obj (Array.to_list (Array.mapi (fun i name -> (name, f i)) phase_names))

(* What the completion callback hands the connection thread: the pool's
   answer and completion, stamped on the executing domain. *)
type executed = {
  resp : Pool.response;
  c : Pool.completion;
  domain : int; (* Domain.self of the executing domain *)
  t_done : float; (* monotonic when the callback ran *)
}

(* One connection's rendezvous with the pool. [conn_loop] serves a
   connection's requests one at a time, so a single waiter, allocated
   at accept and reused, carries every query the connection admits: the
   connection thread parks on [wcv] until the completion callback, on
   whichever domain ran the query, fills in the outcome. *)
type waiter = {
  wmu : Mutex.t;
  wcv : Condition.t;
  mutable outcome : executed option;
}

(* One served query, built once after the response bytes are out: every
   fact the server reports about it. [close] fans it out to the phase
   histograms, the sampled trace, the stderr slow line and the /statusz
   slow ring; the capture line, written earlier on the executing domain,
   reads the same completion. The absolute execute window lets /statusz
   taint a slow entry with GC pauses lazily at render time (the
   eventring poller may record a pause after the entry is pushed;
   matching at read time misses nothing). *)
type report = {
  id : int; (* server-global request id, from the HTTP front door *)
  kind : string;
  status : int;
  t0 : float; (* monotonic at parse start *)
  exec_domain : int;
  exec_t0 : float;
  exec_t1 : float;
  completion : Pool.completion; (* latency, wait, epoch, gen, cache path *)
  phases : float array; (* indexed as [phase_names], seconds *)
  total_s : float; (* the sum of [phases] *)
  uptime_s : float; (* server uptime at completion *)
}

type t = {
  cfg : config;
  pool : Pool.t;
  lsock : Unix.file_descr;
  bound_port : int;
  registry : Metrics.t;
  obs_ctx : Obs.ctx option;
  (* instruments *)
  c_conns : Counter.t;
  c_requests : Counter.t;
  c_queries : Counter.t;
  c_bad : Counter.t;
  c_shed_queue : Counter.t;
  c_shed_deadline : Counter.t;
  c_5xx : Counter.t;
  g_queue_depth : Metrics.Gauge.t;
  g_queue_peak : Metrics.Gauge.t;
  g_health : Metrics.Gauge.t;
  h_request : Metrics.Histogram.t;
  h_phase : Metrics.Histogram.t array; (* indexed by phase, length num_phases *)
  (* sliding-window views over the cumulative instruments above: the
     health engine and /statusz's "window" section read rates and
     rolling quantiles from these; the ticker thread advances the
     boundaries *)
  win : Window.t;
  w_queries : Window.counter_view;
  w_shed_queue : Window.counter_view;
  w_shed_deadline : Window.counter_view;
  w_5xx : Window.counter_view;
  w_request : Window.histogram_view;
  w_phase : Window.histogram_view array;
  w_gc : Window.histogram_view option;
  thresholds : Health.thresholds;
  runtime_obs : Runtime_obs.t option;
  (* request identity and tracing *)
  req_seq : int Atomic.t;
  started_s : float; (* monotonic at create; anchors /statusz uptime *)
  (* slow-request ring (newest overwrite oldest) *)
  slow_mu : Mutex.t;
  slow_ring : report option array;
  mutable slow_seen : int; (* total requests over the threshold *)
  (* admission: admitted queries that have not completed *)
  inflight : int Atomic.t;
  stopping : bool Atomic.t;
  (* capture *)
  rec_oc : out_channel option;
  rec_mu : Mutex.t;
  mutable rec_seq : int;
  (* threads *)
  mutable accept_thread : Thread.t option;
  mutable ticker_thread : Thread.t option;
  conns_mu : Mutex.t;
  conns : (Unix.file_descr, Thread.t) Hashtbl.t; (* live connections *)
}

(* ------------------------------------------------------------------ *)
(* Response payloads                                                  *)
(* ------------------------------------------------------------------ *)

let itemset_json x =
  Jsonx.Arr (List.map (fun i -> Jsonx.Int i) (Itemset.to_list x))

let result_fields = function
  | Pool.R_items entries ->
    [
      ( "items",
        Jsonx.Arr
          (Array.to_list entries
          |> List.map (fun (x, c) ->
                 Jsonx.Obj
                   [ ("itemset", itemset_json x); ("count", Jsonx.Int c) ])) );
    ]
  | Pool.R_count c -> [ ("count", Jsonx.Int c) ]
  | Pool.R_rules rules ->
    [
      ( "rules",
        Jsonx.Arr
          (List.map
             (fun (r : Rule.t) ->
               Jsonx.Obj
                 [
                   ("antecedent", itemset_json r.antecedent);
                   ("consequent", itemset_json r.consequent);
                   ("support_count", Jsonx.Int r.support_count);
                   ("antecedent_count", Jsonx.Int r.antecedent_count);
                 ])
             rules) );
    ]
  | Pool.R_level level ->
    [
      ( "level",
        match level with Some f -> Jsonx.Float f | None -> Jsonx.Null );
    ]
  | Pool.R_entries entries ->
    [
      ( "entries",
        Jsonx.Arr
          (List.map
             (fun (x, s) ->
               Jsonx.Obj
                 [ ("itemset", itemset_json x); ("support", Jsonx.Float s) ])
             entries) );
    ]
  | Pool.R_promoted { promoted; db_size } ->
    [
      ("promoted", Jsonx.Arr (List.map itemset_json promoted));
      ("db_size", Jsonx.Int db_size);
    ]
  | Pool.R_error _ -> []

let json_headers = [ ("content-type", "application/json") ]

let json_response ?(headers = json_headers) ~status fields =
  Http.render_response ~headers ~status
    (Jsonx.to_string (Jsonx.Obj fields) ^ "\n")

let error_response ?headers ~status msg =
  json_response ?headers ~status
    [
      ( "status",
        Jsonx.Str
          (match status with
          | 429 | 503 -> "shed"
          | 404 -> "not_found"
          | 422 -> "error"
          | _ -> "bad_request") );
      ("error", Jsonx.Str msg);
    ]

(* [lat_s] stays the pool's claim-to-completion service time (what
   capture/replay compares); [total_s] is the wire-side account from
   parse start to the connection thread waking with the answer — the
   first five phases. The write phase renders this body, so it cannot
   be in it. *)
let ok_response resp ~id ~latency_s ~total_s =
  let digest =
    match Record.digest_response resp with
    | Some d -> d
    | None -> Fnv.empty (* unreachable: R_error never takes this path *)
  in
  json_response ~status:200
    ([
       ("status", Jsonx.Str "ok");
       ("id", Jsonx.Int id);
       ("digest", Jsonx.Str (Fnv.to_hex digest));
       ("size", Jsonx.Int (Record.result_size resp));
       ("lat_s", Jsonx.Float latency_s);
       ("total_s", Jsonx.Float total_s);
     ]
    @ result_fields resp)

(* ------------------------------------------------------------------ *)
(* Admission and completion                                           *)
(* ------------------------------------------------------------------ *)

let make_waiter () =
  { wmu = Mutex.create (); wcv = Condition.create (); outcome = None }

let resolve w x =
  Mutex.lock w.wmu;
  w.outcome <- Some x;
  Condition.signal w.wcv;
  Mutex.unlock w.wmu

let await w =
  Mutex.lock w.wmu;
  while Option.is_none w.outcome do
    Condition.wait w.wcv w.wmu
  done;
  let o = w.outcome in
  w.outcome <- None;
  Mutex.unlock w.wmu;
  Option.get o

(* Admit under the in-flight bound: 503 once shutdown has begun, 429
   at capacity. A refused increment is undone, so a concurrent
   admission may see a transient overshoot and shed conservatively. *)
let admit t =
  if Atomic.get t.stopping then Error (503, "server is shutting down")
  else
    let depth = Atomic.fetch_and_add t.inflight 1 + 1 in
    if depth > t.cfg.queue_depth then begin
      Atomic.decr t.inflight;
      Counter.incr t.c_shed_queue;
      Error (429, "queue full")
    end
    else begin
      (* CAS-max: a read-then-set here would race between connection
         threads and could lose the higher peak *)
      Metrics.Gauge.max_int t.g_queue_peak depth;
      Ok ()
    end

(* Append one captured record. Runs in the completion callback, on the
   executing domain, so capture lands in completion order: for a single
   client — one outstanding request at a time — that is exactly
   submission order, preserving the digest-exact replay property of
   single-client captures. A query that errored builds no record and
   does not advance the sequence. The epoch and cache path are the
   executing domain's: with non-blocking appends, [Pool.engine t.pool]
   may already be a generation ahead of the snapshot this response was
   computed on. Work counts stay 0 (see [Record.t]'s [vertices]). *)
let record_one t (key : Record.t) resp (c : Pool.completion) =
  match t.rec_oc with
  | None -> ()
  | Some oc -> (
    match
      Record.with_outcome key ~seq:0 ~cache:c.Pool.path
        ~latency_s:c.Pool.latency_s ~vertices:0 ~heap_pops:0
        ~epoch:c.Pool.epoch resp
    with
    | None -> ()
    | Some r ->
      Mutex.lock t.rec_mu;
      let r = { r with Record.seq = t.rec_seq } in
      t.rec_seq <- t.rec_seq + 1;
      output_string oc (Record.to_json_line r);
      output_char oc '\n';
      flush oc;
      Mutex.unlock t.rec_mu)

(* Refresh the runtime gauges, the in-flight query count, and
   per-domain utilization and per-shard depth gauges from the pool's
   accounting. *)
let refresh_gauges t =
  Option.iter Obs.update_runtime_gauges t.obs_ctx;
  Metrics.Gauge.set_int t.g_queue_depth (Atomic.get t.inflight);
  Array.iteri
    (fun k (st : Pool.domain_stat) ->
      let labels = [ ("domain", string_of_int k) ] in
      Metrics.Gauge.set
        (Metrics.gauge t.registry ~labels
           ~help:"Seconds each pool slot spent executing requests"
           "olar_pool_domain_busy_seconds")
        st.Pool.busy_s;
      Metrics.Gauge.set_int
        (Metrics.gauge t.registry ~labels
           ~help:"Requests each pool slot has executed"
           "olar_pool_domain_requests")
        st.Pool.requests)
    (Pool.domain_stats t.pool);
  Array.iteri
    (fun k depth ->
      Metrics.Gauge.set_int
        (Metrics.gauge t.registry
           ~labels:[ ("shard", string_of_int k) ]
           ~help:"Requests queued in each pool submission shard"
           "olar_pool_shard_depth")
        depth)
    (Pool.shard_depths t.pool)

(* ------------------------------------------------------------------ *)
(* Windowed health                                                    *)
(* ------------------------------------------------------------------ *)

(* Fold the sliding windows into one reading for the health engine.
   Ticks first so a reading taken after an idle stretch reflects the
   idle window, not the last busy one. *)
let health_reading t =
  Window.tick t.win;
  {
    (* [executed] comes from the request histogram — observed only on
       Served outcomes — not from [c_queries], which stamps arrivals at
       intake: health rates divide by executed + shed, both counted at
       decision time, so a wedged server shedding its backlog with no
       fresh intake still trips the [min_events] floor. *)
    Health.window_s = Window.covered_s t.win;
    executed = (Window.histogram_window t.w_request).Window.count;
    shed =
      Window.counter_delta t.w_shed_queue
      + Window.counter_delta t.w_shed_deadline;
    errors_5xx = Window.counter_delta t.w_5xx;
    exec_p99_s = (Window.histogram_window t.w_phase.(3)).Window.p99;
  }

(* Evaluate and publish: the [olar_health_state] gauge follows every
   evaluation, whether a probe or the ticker asked. *)
let health_state t =
  let reading = health_reading t in
  let state = Health.evaluate t.thresholds reading in
  Metrics.Gauge.set_int t.g_health (Health.state_value state);
  (state, reading)

(* The GC-observer systhread: the eventring consumer's poll loop, the
   window ticker, and the heartbeat in one — once a second (from its
   first tick) it refreshes the gauges and health verdict and merges
   buffered trace shards, so an idle server's windows and gauges never
   freeze at the last request and nobody has to scrape /metrics.
   Recalibrates the eventring clock offset about once a minute against
   gettimeofday drift. *)
let ticker_loop t =
  let rec go n =
    if not (Atomic.get t.stopping) then begin
      Thread.delay 0.05;
      Window.tick t.win;
      (match t.runtime_obs with
      | None -> ()
      | Some ro ->
        (try ignore (Runtime_obs.poll ro)
         with _ -> () (* a torn ring must not kill the heartbeat *));
        if n mod 1200 = 0 then Runtime_obs.calibrate ro);
      if n mod 20 = 1 then begin
        refresh_gauges t;
        ignore (health_state t);
        Option.iter Obs.flush t.obs_ctx
      end;
      go (n + 1)
    end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Phase accounting, slow log, sampled traces                         *)
(* ------------------------------------------------------------------ *)

let clamp0 x = Float.max 0.0 x

(* The one report constructor. The six phases are the gaps between
   seven stamps: parse start, arrival (key decoded), placed in a ring,
   execution start, execution end, the connection thread waking, bytes
   out. Execution start is the callback's stamp back-dated by the pool's
   own latency, and placement is that back-dated by the ring wait. *)
let report t ~id ~kind ~status ~t0 ~arrival ~t_awake ~t_sent x =
  let c = x.c in
  let exec_t0 = x.t_done -. c.Pool.latency_s in
  let phases =
    [|
      clamp0 (arrival -. t0);
      clamp0 (exec_t0 -. c.Pool.wait_s -. arrival);
      c.Pool.wait_s;
      c.Pool.latency_s;
      clamp0 (t_awake -. x.t_done);
      clamp0 (t_sent -. t_awake);
    |]
  in
  {
    id;
    kind;
    status;
    t0;
    exec_domain = x.domain;
    exec_t0;
    exec_t1 = x.t_done;
    completion = c;
    phases;
    total_s = Array.fold_left ( +. ) 0.0 phases;
    uptime_s = clamp0 (t_sent -. t.started_s);
  }

(* The report's identity as every sink prints it: the slow-ring entry
   and the stderr slow line under these names, the trace root with
   [~id:"request"] and [~domain:"exec_domain"] (a span's own [domain]
   attribute names the domain that emitted it). One list, so the sinks
   cannot drift apart. *)
let report_fields ?(id = "id") ?(domain = "domain") q =
  let c = q.completion in
  Trace.
    [
      (id, Int q.id);
      ("kind", Str q.kind);
      ("status", Int q.status);
      (domain, Int q.exec_domain);
      ("cache", Str (Record.cache_path_to_string c.Pool.path));
      ("gen", Int c.Pool.gen);
    ]

(* One slow entry: the /statusz ring renders it, and the stderr slow
   line prints it when pushed. [gc_pause_s] is the tainting verdict: the
   longest recorded GC pause overlapping this entry's execute window,
   resolved lazily when /statusz renders so pauses polled after the
   entry was pushed still count (the stderr copy has none yet). *)
let slow_entry_json ?gc_pause_s q =
  Jsonx.Obj
    (List.map (fun (k, v) -> (k, Olar_obs.Sink.value_to_json v)) (report_fields q)
    @ [
      ("total_ms", Jsonx.Float (q.total_s *. 1e3));
      ("phases_ms", per_phase (fun i -> Jsonx.Float (q.phases.(i) *. 1e3)));
      ( "gc_pause_ms",
        match gc_pause_s with
        | Some s -> Jsonx.Float (s *. 1e3)
        | None -> Jsonx.Null );
      ("uptime_s", Jsonx.Float q.uptime_s);
    ])

let push_slow t q =
  Mutex.lock t.slow_mu;
  let cap = Array.length t.slow_ring in
  if cap > 0 then t.slow_ring.(t.slow_seen mod cap) <- Some q;
  t.slow_seen <- t.slow_seen + 1;
  Mutex.unlock t.slow_mu;
  prerr_endline ("olar-serve: slow request " ^ Jsonx.to_string (slow_entry_json q))

(* Emit one sampled per-request trace: six phase children (child-first),
   each starting where the previous one ended, under an [http.request]
   root spanning their sum. The connection thread never touches the
   stack tracer — domain 0's stack belongs to whichever thread holds the
   pool's intake lock — so the spans are injected prebuilt into the
   calling thread's shard. *)
let inject_request_trace t q =
  match Option.bind t.obs_ctx Obs.tracing with
  | None -> ()
  | Some sh ->
    let root = Trace.Sharded.alloc_id sh in
    let start = ref q.t0 in
    Array.iteri
      (fun i name ->
        ignore
          (Trace.Sharded.inject sh ~parent:root ~depth:1 ~name:("phase." ^ name)
             ~start_s:!start ~duration_s:q.phases.(i) []);
        start := !start +. q.phases.(i))
      phase_names;
    ignore
      (Trace.Sharded.inject sh ~id:root ~depth:0 ~name:"http.request"
         ~start_s:q.t0 ~duration_s:q.total_s
         (report_fields ~id:"request" ~domain:"exec_domain" q))

(* After the response bytes are out, fan one report out to every sink:
   the six phase histograms, the sampled trace and the slow log. *)
let close t q =
  for i = 0 to Array.length q.phases - 1 do
    Metrics.Histogram.observe t.h_phase.(i) q.phases.(i)
  done;
  if t.cfg.trace_sample > 0 && q.id mod t.cfg.trace_sample = 0 then
    inject_request_trace t q;
  if q.total_s >= t.cfg.slow_s then push_slow t q

(* ------------------------------------------------------------------ *)
(* /statusz                                                           *)
(* ------------------------------------------------------------------ *)

let us x = Jsonx.Float (if Float.is_finite x then x *. 1e6 else 0.0)

let hist_json h =
  Jsonx.Obj
    [
      ("count", Jsonx.Int (Metrics.Histogram.count h));
      ("sum_s", Jsonx.Float (Metrics.Histogram.sum h));
      ("p50_us", us (Metrics.Histogram.quantile h 0.5));
      ("p90_us", us (Metrics.Histogram.quantile h 0.9));
      ("p99_us", us (Metrics.Histogram.quantile h 0.99));
    ]

(* Phase-histogram summaries: a Jsonx-parseable view of the six
   olar_http_phase_seconds series, so tooling (the bench harness) can
   read phase latencies without parsing Prometheus text. *)
let phases_json t = per_phase (fun i -> hist_json t.h_phase.(i))

(* One windowed-histogram summary in the same shape as [phases_json]'s
   cumulative ones, plus the window's event rate. *)
let hist_window_json (w : Window.hist_window) =
  Jsonx.Obj
    [
      ("count", Jsonx.Int w.Window.count);
      ("rate", Jsonx.Float w.Window.rate);
      ("p50_us", us w.Window.p50);
      ("p90_us", us w.Window.p90);
      ("p99_us", us w.Window.p99);
    ]

(* The rolling view: per-second rates and windowed quantiles over the
   last window span, where everything above is process-cumulative. *)
let window_json t =
  let r = health_reading t in
  Jsonx.Obj
    [
      ("span_s", Jsonx.Float (Window.span_s t.win));
      ("covered_s", Jsonx.Float r.Health.window_s);
      ("qps", Jsonx.Float (Window.counter_rate t.w_queries));
      ("queries", Jsonx.Int (Window.counter_delta t.w_queries));
      (* decided-to-completion in the window — what health grades
         against, where [queries] above is stamped at intake *)
      ("executed", Jsonx.Int r.Health.executed);
      ("shed", Jsonx.Int r.Health.shed);
      ("http_5xx", Jsonx.Int r.Health.errors_5xx);
      ("request", hist_window_json (Window.histogram_window t.w_request));
      ( "phases",
        per_phase (fun i -> hist_window_json (Window.histogram_window t.w_phase.(i)))
      );
    ]

let gc_json t =
  match (t.runtime_obs, t.w_gc) with
  | Some ro, Some wg ->
    Jsonx.Obj
      [
        ("pauses", Jsonx.Int (Runtime_obs.pause_count ro));
        ("calibrated", Jsonx.Bool (Runtime_obs.calibrated ro));
        ("window", hist_window_json (Window.histogram_window wg));
      ]
  | _ -> Jsonx.Null

(* The verdict and its JSON — /statusz's "health" section and the
   /healthz body alike. *)
let health_json t =
  let state, reading = health_state t in
  ( state,
    Jsonx.Obj
      [
        ("state", Jsonx.Str (Health.state_name state));
        ( "reasons",
          Jsonx.Arr (List.map (fun r -> Jsonx.Str r) (Health.reasons state)) );
        ("window_s", Jsonx.Float reading.Health.window_s);
        ("queries", Jsonx.Int (Health.arrivals reading));
        ("executed", Jsonx.Int reading.Health.executed);
        ("shed", Jsonx.Int reading.Health.shed);
        ("http_5xx", Jsonx.Int reading.Health.errors_5xx);
        ( "exec_p99_ms",
          let p = reading.Health.exec_p99_s in
          if Float.is_finite p then Jsonx.Float (p *. 1e3) else Jsonx.Null );
      ] )

let taint_slow t q =
  match t.runtime_obs with
  | None -> None
  | Some ro -> Runtime_obs.pause_overlapping ro ~t0:q.exec_t0 ~t1:q.exec_t1 ()

(* Snapshot the slow ring, newest first. *)
let slow_snapshot t =
  Mutex.lock t.slow_mu;
  let seen = t.slow_seen in
  let cap = Array.length t.slow_ring in
  let n = if cap = 0 then 0 else min seen cap in
  let entries =
    List.filter_map
      (fun k -> t.slow_ring.((seen - 1 - k) mod cap))
      (List.init n Fun.id)
  in
  Mutex.unlock t.slow_mu;
  (seen, entries)

let statusz_json t =
  let version =
    match Metrics.find t.registry "olar_build_info" with
    | Some { Metrics.labels; _ } -> (
      match List.assoc_opt "version" labels with
      | Some v -> v
      | None -> "unknown")
    | None -> "unknown"
  in
  let uptime = clamp0 (Timer.monotonic_s () -. t.started_s) in
  let pool_json =
    Jsonx.Arr
      (Array.to_list
         (Array.mapi
            (fun k (st : Pool.domain_stat) ->
              Jsonx.Obj
                [
                  ("domain", Jsonx.Int k);
                  ("requests", Jsonx.Int st.Pool.requests);
                  ("busy_s", Jsonx.Float st.Pool.busy_s);
                  ( "utilization",
                    Jsonx.Float
                      (if uptime > 0.0 then st.Pool.busy_s /. uptime else 0.0)
                  );
                ])
            (Pool.domain_stats t.pool)))
  in
  let shards_json =
    Jsonx.Arr
      (Array.to_list
         (Array.map (fun d -> Jsonx.Int d) (Pool.shard_depths t.pool)))
  in
  let seen, slow_entries = slow_snapshot t in
  Jsonx.Obj
    [
      ("version", Jsonx.Str version);
      ("uptime_s", Jsonx.Float uptime);
      ("domains", Jsonx.Int (Pool.domains t.pool));
      ( "queue",
        Jsonx.Obj
          [
            ("depth", Jsonx.Int (Atomic.get t.inflight));
            ( "peak",
              Jsonx.Int (int_of_float (Metrics.Gauge.value t.g_queue_peak)) );
            ("limit", Jsonx.Int t.cfg.queue_depth);
          ] );
      ( "counters",
        Jsonx.Obj
          [
            ("connections", Jsonx.Int (Counter.value t.c_conns));
            ( "connections_open",
              Jsonx.Int
                (Mutex.protect t.conns_mu (fun () -> Hashtbl.length t.conns)) );
            ("requests", Jsonx.Int (Counter.value t.c_requests));
            ("queries", Jsonx.Int (Counter.value t.c_queries));
            ("bad_requests", Jsonx.Int (Counter.value t.c_bad));
            ("shed_queue", Jsonx.Int (Counter.value t.c_shed_queue));
            ("shed_deadline", Jsonx.Int (Counter.value t.c_shed_deadline));
          ] );
      ("pool", pool_json);
      ("dispatch", hist_json (Pool.dispatch_wait t.pool));
      ("shards", shards_json);
      ("phases", phases_json t);
      ("window", window_json t);
      ("gc", gc_json t);
      ("health", snd (health_json t));
      ( "slow",
        Jsonx.Obj
          [
            ( "threshold_ms",
              if Float.is_finite t.cfg.slow_s then
                Jsonx.Float (t.cfg.slow_s *. 1e3)
              else Jsonx.Null );
            ("capacity", Jsonx.Int (Array.length t.slow_ring));
            ("seen", Jsonx.Int seen);
            ( "entries",
              Jsonx.Arr
                (List.map
                   (fun e -> slow_entry_json ?gc_pause_s:(taint_slow t e) e)
                   slow_entries) );
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Request handling                                                   *)
(* ------------------------------------------------------------------ *)

let shed t ~status msg =
  if status >= 500 then Counter.incr t.c_5xx;
  error_response ~status msg

(* Serve one /query. The connection thread submits straight to the pool
   and parks on its waiter; the completion callback captures the record
   and stamps the execution on the executing domain. Once the bytes are
   out, the request's report closes its books. *)
let handle_query t w ~send ~rid ~t0 body =
  let fail e =
    Counter.incr t.c_bad;
    send (error_response ~status:400 e)
  in
  match Record.key_of_json_line body with
  | Error e -> fail ("invalid query key: " ^ e)
  | Ok key -> (
    match Record.to_request key with
    | Error e -> fail ("incomplete query key: " ^ e)
    | Ok req -> (
      Counter.incr t.c_queries;
      let arrival = Timer.monotonic_s () in
      match admit t with
      | Error (status, msg) -> send (shed t ~status msg)
      | Ok () ->
        let deadline =
          if t.cfg.deadline_s > 0.0 then arrival +. t.cfg.deadline_s
          else infinity
        in
        Pool.submit ~deadline t.pool req (fun resp c ->
            let t_done = Timer.monotonic_s () in
            (if not c.Pool.expired then
               try record_one t key resp c
               with e ->
                 Printf.eprintf "olar-serve: capture write failed: %s\n%!"
                   (Printexc.to_string e));
            resolve w { resp; c; domain = (Domain.self () :> int); t_done });
        let x = await w in
        Atomic.decr t.inflight;
        if x.c.Pool.expired then begin
          (* shed before execution: no report to close *)
          Counter.incr t.c_shed_deadline;
          send (shed t ~status:503 "deadline exceeded")
        end
        else begin
          let t_awake = Timer.monotonic_s () in
          Metrics.Histogram.observe t.h_request (clamp0 (t_awake -. arrival));
          let status, bytes =
            match x.resp with
            | Pool.R_error msg -> (422, error_response ~status:422 msg)
            | resp ->
              ( 200,
                ok_response resp ~id:rid ~latency_s:x.c.Pool.latency_s
                  ~total_s:(clamp0 (t_awake -. t0)) )
          in
          send bytes;
          close t
            (report t ~id:rid
               ~kind:(Record.kind_to_string key.Record.kind)
               ~status ~t0 ~arrival ~t_awake ~t_sent:(Timer.monotonic_s ()) x)
        end))

(* The GET status/headers/body of each read-only endpoint, shared by
   HEAD (which renders the same status/headers with the body
   omitted). *)
let endpoint_get t target =
  match target with
  | "/metrics" ->
    refresh_gauges t;
    Some
      ( 200,
        [ ("content-type", "text/plain; version=0.0.4; charset=utf-8") ],
        Exposition.to_prometheus t.registry )
  | "/healthz" ->
    (* the health engine's verdict as JSON. Degraded stays 200 — naive
       probes keep routing while the reasons are on display — unhealthy
       answers 503 so load balancers pull the instance. *)
    let state, body = health_json t in
    Some (Health.status_code state, json_headers, Jsonx.to_string body ^ "\n")
  | "/statusz" ->
    refresh_gauges t;
    Some (200, json_headers, Jsonx.to_string (statusz_json t) ^ "\n")
  | _ -> None

(* Answer one request through [send]; true when the client asked for
   the connection to close. *)
let handle t w ~send (req : Http.request) ~rid ~t0 =
  (match (req.meth, req.target) with
  | "POST", "/query" -> handle_query t w ~send ~rid ~t0 req.body
  | ("GET" | "HEAD"), target ->
    send
      (match endpoint_get t target with
      | Some (status, headers, body) ->
        Http.render_response ~headers ~head:(req.meth = "HEAD") ~status body
      | None -> error_response ~status:404 "no such endpoint")
  | "POST", _ -> send (error_response ~status:404 "no such endpoint")
  | _ -> send (error_response ~status:405 "method not allowed"));
  match Http.header req "connection" with
  | Some v -> String.lowercase_ascii (String.trim v) = "close"
  | None -> false

(* ------------------------------------------------------------------ *)
(* Connection I/O                                                     *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      let n = Unix.write fd b off (len - off) in
      go (off + n)
  in
  go 0

let conn_loop t fd =
  let w = make_waiter () in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let off = ref 0 in
  let closed = ref false in
  let send s = try write_all fd s with _ -> closed := true in
  (try
     while not !closed do
       (* serve every complete pipelined request already buffered *)
       let progress = ref true in
       while !progress && not !closed do
         (* parse-phase start for the request this attempt completes;
            earlier Incomplete attempts (partial reads) are not
            attributed — parse covers the final parse + key decode *)
         let pt0 = Timer.monotonic_s () in
         match
           Http.parse_request ~max_body:t.cfg.max_body_bytes
             (Buffer.contents buf) ~off:!off
         with
         | Http.Complete (req, used) ->
           off := !off + used;
           Counter.incr t.c_requests;
           let rid = Atomic.fetch_and_add t.req_seq 1 in
           if handle t w ~send req ~rid ~t0:pt0 then closed := true
         | Http.Incomplete ->
           progress := false;
           if !off > 0 then begin
             (* compact the consumed prefix before reading more *)
             let rest = Buffer.sub buf !off (Buffer.length buf - !off) in
             Buffer.clear buf;
             Buffer.add_string buf rest;
             off := 0
           end
         | Http.Failed e ->
           Counter.incr t.c_bad;
           send
             (error_response
                ~headers:(("connection", "close") :: json_headers)
                ~status:e.Http.status e.Http.reason);
           closed := true
       done;
       if not !closed then
         match Unix.read fd chunk 0 (Bytes.length chunk) with
         | 0 -> closed := true
         | n -> Buffer.add_subbytes buf chunk 0 n
         | exception _ -> closed := true
     done
   with _ -> ());
  (* deregister before closing, under the lock [stop] shuts fds down
     under, so [stop] never touches a reused fd number *)
  Mutex.protect t.conns_mu (fun () ->
      Hashtbl.remove t.conns fd;
      try Unix.close fd with _ -> ())

(* Poll with a short select so shutdown can stop the loop: closing a
   socket does not wake a thread blocked in accept(2), so a blocking
   accept here would make [stop] hang. *)
let accept_loop t =
  let rec go () =
    if Atomic.get t.stopping then ()
    else
      let ready =
        match Unix.select [ t.lsock ] [] [] 0.05 with
        | r, _, _ -> r <> []
        | exception _ -> false
      in
      if Atomic.get t.stopping then ()
      else if not ready then go ()
      else
        match Unix.accept ~cloexec:true t.lsock with
        | exception _ -> if not (Atomic.get t.stopping) then go ()
        | fd, _addr ->
          Counter.incr t.c_conns;
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
          (* registered under the lock the thread deregisters under, so
             a connection that ends at once still leaves no entry *)
          Mutex.protect t.conns_mu (fun () ->
              Hashtbl.replace t.conns fd (Thread.create (conn_loop t) fd));
          go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) ?domains ?budget_bytes engine =
  if config.slow_ring < 0 then
    invalid_arg "Server.create: slow_ring must be >= 0";
  if config.slo_p99_s < 0.0 || Float.is_nan config.slo_p99_s then
    invalid_arg "Server.create: slo_p99_s must be >= 0";
  (* a client hanging up mid-response must surface as EPIPE on the
     write, not kill the process *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let pool = Pool.create ?domains ?budget_bytes engine in
  let registry, obs_ctx =
    match Engine.obs engine with
    | Some ctx -> (Obs.metrics ctx, Some ctx)
    | None -> (Metrics.create (), None)
  in
  let lsock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lsock Unix.SO_REUSEADDR true;
     Unix.bind lsock
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen lsock config.backlog
   with e ->
     (try Unix.close lsock with _ -> ());
     Pool.shutdown pool;
     raise e);
  let bound_port =
    match Unix.getsockname lsock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let rec_oc =
    Option.map
      (fun path -> open_out_gen [ Open_append; Open_creat ] 0o644 path)
      config.record
  in
  let counter name help = Metrics.counter registry ~help name in
  let c_conns = counter "olar_http_connections_total" "TCP connections accepted" in
  let c_requests = counter "olar_http_requests_total" "HTTP requests parsed" in
  let c_queries = counter "olar_http_queries_total" "well-formed /query requests" in
  let c_bad =
    counter "olar_http_bad_requests_total"
      "malformed requests answered 400/413/431/501"
  in
  let c_shed_queue =
    counter "olar_http_shed_queue_total"
      "queries shed with 429 (in-flight bound reached)"
  in
  let c_shed_deadline =
    counter "olar_http_shed_deadline_total"
      "queries shed with 503 (deadline passed before execution)"
  in
  let c_5xx =
    counter "olar_http_5xx_total" "responses answered with a 5xx status"
  in
  let h_request =
    Metrics.histogram registry
      ~help:"end-to-end /query latency (admission to response build)"
      "olar_http_request_seconds"
  in
  let h_phase =
    Array.map
      (fun phase ->
        Metrics.histogram registry ~help:"per-phase /query latency attribution"
          ~labels:[ ("phase", phase) ]
          "olar_http_phase_seconds")
      phase_names
  in
  (* The eventring consumer rides the obs gate: a bare test server
     (no --metrics/--trace) pays nothing for GC attribution. Start
     failure (an exotic runtime without eventring support) degrades to
     the unattributed server rather than refusing to serve. *)
  let runtime_obs =
    match obs_ctx with
    | None -> None
    | Some _ -> (
      try
        Some (Runtime_obs.start ~metrics:registry ~clock:Timer.monotonic_s ())
      with _ -> None)
  in
  (* 60 one-second buckets over the same monotonic clock the request
     phases are stamped with. *)
  let win = Window.create ~clock:Timer.monotonic_s () in
  let t =
    {
      cfg = config;
      pool;
      lsock;
      bound_port;
      registry;
      obs_ctx;
      c_conns;
      c_requests;
      c_queries;
      c_bad;
      c_shed_queue;
      c_shed_deadline;
      c_5xx;
      g_queue_depth =
        Metrics.gauge registry ~help:"admitted queries not yet completed"
          "olar_http_queue_depth";
      g_queue_peak =
        Metrics.gauge registry ~help:"peak admitted queries not yet completed"
          "olar_http_queue_depth_peak";
      g_health =
        Metrics.gauge registry
          ~help:"health engine verdict: 0 ok, 1 degraded, 2 unhealthy"
          "olar_health_state";
      h_request;
      h_phase;
      win;
      w_queries = Window.track_counter win c_queries;
      w_shed_queue = Window.track_counter win c_shed_queue;
      w_shed_deadline = Window.track_counter win c_shed_deadline;
      w_5xx = Window.track_counter win c_5xx;
      w_request = Window.track_histogram win h_request;
      w_phase = Array.map (Window.track_histogram win) h_phase;
      w_gc =
        Option.map
          (fun ro -> Window.track_histogram win (Runtime_obs.pauses ro))
          runtime_obs;
      thresholds =
        Health.with_slo_p99 Health.default_thresholds ~slo_s:config.slo_p99_s;
      runtime_obs;
      req_seq = Atomic.make 0;
      started_s = Timer.monotonic_s ();
      slow_mu = Mutex.create ();
      slow_ring = Array.make config.slow_ring None;
      slow_seen = 0;
      inflight = Atomic.make 0;
      stopping = Atomic.make false;
      rec_oc;
      rec_mu = Mutex.create ();
      rec_seq = 0;
      accept_thread = None;
      ticker_thread = None;
      conns_mu = Mutex.create ();
      conns = Hashtbl.create 16;
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t.ticker_thread <- Some (Thread.create ticker_loop t);
  t

let port t = t.bound_port
let url t = Printf.sprintf "http://%s:%d" t.cfg.host t.bound_port
let pool t = t.pool

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* new queries now answer 503. The accept loop notices within one
       select tick; only close the listener after it exits so the fd
       cannot be reused under a racing accept *)
    Option.iter Thread.join t.accept_thread;
    (try Unix.close t.lsock with _ -> ());
    (* execute every admitted query that is still in a ring *)
    Pool.drain t.pool;
    (* the ticker notices [stopping] within one 50ms delay *)
    Option.iter Thread.join t.ticker_thread;
    Option.iter Runtime_obs.stop t.runtime_obs;
    (* unblock idle keep-alive readers; admitted responses still go out
       because only the receive side is shut down, and joining the
       connection threads waits for those writes *)
    let threads =
      Mutex.protect t.conns_mu (fun () ->
          Hashtbl.fold
            (fun fd th acc ->
              (try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ());
              th :: acc)
            t.conns [])
    in
    List.iter Thread.join threads;
    Option.iter close_out_noerr t.rec_oc;
    Pool.shutdown t.pool;
    (* every producer thread is joined: merge whatever spans are still
       buffered so a trace file is complete when [stop] returns *)
    Option.iter Obs.flush t.obs_ctx
  end

let with_server ?config ?domains ?budget_bytes engine f =
  let t = create ?config ?domains ?budget_bytes engine in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
