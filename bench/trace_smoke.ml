(* Request-tracing smoke check (the @trace-smoke alias).

   Serves a deterministic canned workload through an in-process daemon
   with tracing on and a 1-in-2 request sample, then validates the
   emitted spans file end to end: every sampled request must have
   produced one http.request root with exactly six phase.* children,
   the six phases must tile their root (each starting where the previous
   one ended, the root lasting their sum), every span must carry the
   domain that produced it, and children must precede their parents in
   file order — the child-first contract consumers rebuild trees from,
   which {!Trace.Sharded.flush} promises to preserve across the
   per-domain buffer merge. The /statusz phase histograms must account
   for every served query.

   Usage: trace_smoke.exe TRACE_OUT [QUERIES] *)

open Olar_data
module Engine = Olar_core.Engine
module Server = Olar_net.Server
module Http = Olar_net.Http
module Record = Olar_replay.Record
module Fnv = Olar_replay.Fnv
module Jsonx = Olar_obs.Jsonx

let primary_support = 0.01

(* Same deterministic dataset as serve_smoke.ml. *)
let params =
  Olar_datagen.Params.make
    ~over:
      {
        Olar_datagen.Params.default with
        num_items = 120;
        num_potential = 200;
        seed = 7;
      }
    ~avg_transaction_size:8.0 ~avg_itemset_size:3.0 ~num_transactions:2000 ()

let die fmt =
  Printf.ksprintf (fun m -> prerr_endline ("trace_smoke: " ^ m); exit 1) fmt

let key ?(containing = Itemset.empty) ?minsup ?minconf kind =
  {
    Record.seq = 0;
    kind;
    containing;
    antecedent_includes = Itemset.empty;
    consequent_includes = Itemset.empty;
    allow_empty_antecedent = false;
    minsup;
    minconf;
    k = None;
    delta = [];
    delta_num_items = 0;
    cache = Record.Passthrough;
    digest = Fnv.empty;
    result_size = 0;
    latency_s = 0.0;
    vertices = 0;
    heap_pops = 0;
    epoch = 0;
  }

(* A small mixed workload, every key at or above the primary threshold
   so every answer is a 200. *)
let workload engine n =
  let p = Engine.primary_threshold engine in
  List.init n (fun i ->
      let minsup = if i mod 2 = 0 then p else p *. 2.0 in
      match i mod 3 with
      | 0 -> key Record.Count_itemsets ~minsup
      | 1 -> key Record.Find_itemsets ~minsup
      | _ -> key Record.Essential_rules ~minsup ~minconf:0.3)

(* Minimal blocking loopback client. *)
let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let roundtrip fd buf off s =
  let sb = Bytes.unsafe_of_string s in
  let rec wr o =
    if o < String.length s then wr (o + Unix.write fd sb o (String.length s - o))
  in
  wr 0;
  let chunk = Bytes.create 8192 in
  let rec rd () =
    match Http.parse_response (Buffer.contents buf) ~off:!off with
    | Http.Complete (resp, used) ->
      off := !off + used;
      resp
    | Http.Failed { status; reason } ->
      die "malformed response: %d %s" status reason
    | Http.Incomplete -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> die "server closed the connection"
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        rd ())
  in
  rd ()

let phase_names =
  [ "phase.parse"; "phase.queue"; "phase.dispatch"; "phase.execute";
    "phase.deliver"; "phase.write" ]

let () =
  let trace_path, num_queries =
    match Sys.argv with
    | [| _; t |] -> (t, 40)
    | [| _; t; n |] -> (t, int_of_string n)
    | _ -> die "usage: trace_smoke TRACE_OUT [QUERIES]"
  in
  let db = Olar_datagen.Quest.generate params in
  let oc = open_out trace_path in
  let sink = Olar_obs.Sink.jsonl oc in
  let engine =
    Engine.at_threshold ~obs:(Olar_obs.Obs.create ~trace:sink ()) db
      ~primary_support
  in
  let sample = 2 in
  let config =
    { Server.default_config with Server.port = 0; trace_sample = sample }
  in
  let keys = workload engine num_queries in
  let statusz =
    Server.with_server ~config ~domains:2 ~budget_bytes:0 engine (fun srv ->
        let fd = connect (Server.port srv) in
        let buf = Buffer.create 8192 in
        let off = ref 0 in
        List.iteri
          (fun i k ->
            let body = Record.key_to_json_line k in
            let resp =
              roundtrip fd buf off
                (Http.render_request ~meth:"POST" ~target:"/query" body)
            in
            if resp.Http.status <> 200 then
              die "query %d answered %d (body %s)" i resp.Http.status body)
          keys;
        let sz =
          roundtrip fd buf off
            (Http.render_request ~meth:"GET" ~target:"/statusz" "")
        in
        if sz.Http.status <> 200 then die "statusz answered %d" sz.Http.status;
        (try Unix.close fd with _ -> ());
        sz.Http.resp_body)
  in
  (* with_server stopped the daemon, which flushed every domain's span
     buffer into the jsonl sink *)
  close_out oc;

  (* /statusz: the six phase histograms account for every served query *)
  (match Jsonx.of_string statusz with
  | Error e -> die "statusz is not JSON: %s" e
  | Ok json ->
    List.iter
      (fun phase ->
        match
          Option.bind (Jsonx.path [ "phases"; phase; "count" ] json) Jsonx.number
        with
        | Some c when int_of_float c = num_queries -> ()
        | Some c ->
          die "phase %s counted %d of %d queries" phase (int_of_float c)
            num_queries
        | None -> die "statusz lacks phases/%s/count" phase)
      [ "parse"; "queue"; "dispatch"; "execute"; "deliver"; "write" ]);

  (* the spans file: parse every line, check domain tags, child-first
     order and the per-request root/children shape *)
  let spans = ref [] in
  In_channel.with_open_text trace_path (fun ic ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then
            match Jsonx.of_string line with
            | Error e -> die "unparsable span line %S: %s" line e
            | Ok j -> spans := j :: !spans
        done
      with End_of_file -> ());
  let spans = Array.of_list (List.rev !spans) in
  if Array.length spans = 0 then die "trace file is empty";
  let str name j = Option.bind (Jsonx.member name j) Jsonx.to_str in
  let num name j = Option.bind (Jsonx.member name j) Jsonx.number in
  let index_of_id = Hashtbl.create 256 in
  Array.iteri
    (fun i j ->
      match num "id" j with
      | Some id -> Hashtbl.replace index_of_id (int_of_float id) i
      | None -> die "span %d lacks an id" i)
    spans;
  Array.iteri
    (fun i j ->
      (match Option.bind (Jsonx.path [ "attrs"; "domain" ] j) Jsonx.number with
      | Some d when d >= 0.0 -> ()
      | _ -> die "span %d (%s) lacks a domain tag" i
               (Option.value ~default:"?" (str "name" j)));
      match num "parent" j with
      | None -> () (* root: parent is null *)
      | Some p -> (
        match Hashtbl.find_opt index_of_id (int_of_float p) with
        | None -> die "span %d orphaned: parent %d not in file" i (int_of_float p)
        | Some pi ->
          if pi <= i then
            die "span %d emitted after its parent (line %d): merge broke \
                 child-first order" i pi))
    spans;
  let roots =
    Array.to_list spans
    |> List.filter (fun j -> str "name" j = Some "http.request")
  in
  let expected_roots = (num_queries + sample - 1) / sample in
  if List.length roots <> expected_roots then
    die "expected %d sampled http.request roots, found %d" expected_roots
      (List.length roots);
  List.iter
    (fun root ->
      let rid =
        match num "id" root with Some id -> int_of_float id | None -> -1
      in
      let children =
        Array.to_list spans
        |> List.filter (fun j ->
               match num "parent" j with
               | Some p -> int_of_float p = rid
               | None -> false)
      in
      let names = List.filter_map (fun j -> str "name" j) children in
      if names <> phase_names then
        die "root %d has children [%s], expected the six phases" rid
          (String.concat "; " names);
      (* the phases tile the root: each child starts where the previous
         one ended, and the root lasts exactly their sum *)
      let time name j =
        match num name j with Some f -> f | None -> die "span lacks %s" name
      in
      let close a b = Float.abs (a -. b) <= 1e-9 in
      let ended, sum =
        List.fold_left
          (fun (prev_end, sum) c ->
            let start = time "start_s" c and dur = time "duration_s" c in
            if not (close start prev_end) then
              die "root %d: %s starts at %.9f, the previous phase ended at %.9f"
                rid
                (Option.value ~default:"?" (str "name" c))
                start prev_end;
            (start +. dur, sum +. dur))
          (time "start_s" root, 0.0) children
      in
      if not (close sum (time "duration_s" root)) then
        die "root %d lasts %.9fs, its phases sum to %.9fs" rid
          (time "duration_s" root) sum;
      if not (close ended (time "start_s" root +. time "duration_s" root)) then
        die "root %d ends at %.9f, its last phase at %.9f" rid
          (time "start_s" root +. time "duration_s" root)
          ended;
      match Option.bind (Jsonx.path [ "attrs"; "request" ] root) Jsonx.number with
      | Some r when int_of_float r mod sample = 0 -> ()
      | Some r -> die "root %d carries unsampled request id %d" rid (int_of_float r)
      | None -> die "root %d lacks a request attr" rid)
    roots;
  Printf.printf
    "trace smoke: %d queries, %d sampled request traces, %d spans, \
     child-first, domain-tagged, phases tiling each root\n"
    num_queries expected_roots (Array.length spans)
