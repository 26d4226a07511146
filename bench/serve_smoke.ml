(* Serve -> capture -> replay smoke check (the @serve-smoke alias).

   Builds a deterministic engine, saves its lattice BEFORE serving,
   then runs an in-process olar-serve daemon with --record semantics
   and drives a canned workload — every query family plus a mid-stream
   append — through a real loopback socket from ONE client. A single
   closed-loop client makes the capture order the issue order (one
   query is in flight at a time), so the recorded
   jsonl replays digest-exactly against the saved pre-serving lattice.

   The replay itself is done by the driver rule with the real CLI:
     serve_smoke.exe LATTICE CAPTURE && olar replay CAPTURE -l LATTICE
   which exits nonzero on any digest mismatch.

   Usage: serve_smoke.exe LATTICE_OUT CAPTURE_OUT [QUERIES] *)

open Olar_data
module Engine = Olar_core.Engine
module Lattice = Olar_core.Lattice
module Server = Olar_net.Server
module Http = Olar_net.Http
module Record = Olar_replay.Record
module Fnv = Olar_replay.Fnv

let primary_support = 0.01

(* Same deterministic dataset as replay_smoke.ml. *)
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

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("serve_smoke: " ^ m); exit 1) fmt

(* A bare query key (the POST /query wire body, via key_to_json_line). *)
let key ?(containing = Itemset.empty) ?minsup ?minconf ?k ?(delta = [])
    ?(num_items = 0) kind =
  {
    Record.seq = 0;
    kind;
    containing;
    antecedent_includes = Itemset.empty;
    consequent_includes = Itemset.empty;
    allow_empty_antecedent = false;
    minsup;
    minconf;
    k;
    delta;
    delta_num_items = num_items;
    cache = Record.Passthrough;
    digest = Fnv.empty;
    result_size = 0;
    latency_s = 0.0;
    vertices = 0;
    heap_pops = 0;
    epoch = 0;
  }

(* The canned workload: every family, support levels at or above the
   primary threshold, one append in the middle. Deterministic. *)
let workload engine db num_queries =
  let lat = Engine.lattice engine in
  let singletons = ref [] in
  let deepest = ref Itemset.empty in
  for v = 0 to Lattice.num_vertices lat - 1 do
    let x = Lattice.itemset lat v in
    if Itemset.cardinal x = 1 then singletons := x :: !singletons;
    if Itemset.cardinal x > Itemset.cardinal !deepest then deepest := x
  done;
  let singletons = Array.of_list (List.rev !singletons) in
  if Array.length singletons = 0 then die "no frequent singletons";
  let p = Engine.primary_threshold engine in
  let levels = [| p; p *. 1.5; p *. 2.5; p *. 4.0 |] in
  let confs = [| 0.2; 0.5; 0.8 |] in
  let rng = Random.State.make [| 0x5eed |] in
  List.init num_queries (fun i ->
      let containing =
        if i mod 3 = 0 then Itemset.empty
        else singletons.(Random.State.int rng (Array.length singletons))
      in
      let minsup = levels.(Random.State.int rng (Array.length levels)) in
      let minconf = confs.(Random.State.int rng (Array.length confs)) in
      if i = num_queries / 2 then
        let rows =
          List.init 5 (fun _ ->
              Itemset.to_list
                singletons.(Random.State.int rng (Array.length singletons)))
        in
        key Record.Append ~delta:rows ~num_items:(Database.num_items db)
      else
        match i mod 8 with
        | 0 -> key Record.Find_itemsets ~containing ~minsup
        | 1 -> key Record.Count_itemsets ~containing ~minsup
        | 2 -> key Record.Essential_rules ~containing ~minsup ~minconf
        | 3 -> key Record.All_rules ~containing ~minsup ~minconf
        | 4 -> key Record.Single_consequent_rules ~containing ~minsup ~minconf
        | 5 ->
          key Record.Support_for_k_itemsets ~containing
            ~k:(1 + Random.State.int rng 50)
        | 6 ->
          key Record.Support_for_k_rules ~containing:containing ~minconf
            ~k:(1 + Random.State.int rng 20)
        | _ -> key Record.Boundary ~containing:!deepest ~minconf)

(* Minimal blocking loopback client. *)
let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let post fd buf off body =
  let s = Http.render_request ~meth:"POST" ~target:"/query" body in
  let sb = Bytes.unsafe_of_string s in
  let rec wr o =
    if o < String.length s then
      wr (o + Unix.write fd sb o (String.length s - o))
  in
  wr 0;
  let chunk = Bytes.create 8192 in
  let rec rd () =
    match Http.parse_response (Buffer.contents buf) ~off:!off with
    | Http.Complete (resp, used) ->
      off := !off + used;
      resp.Http.status
    | Http.Failed { status; reason } -> die "malformed response: %d %s" status reason
    | Http.Incomplete -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> die "server closed the connection"
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        rd ())
  in
  rd ()

let () =
  let lattice_path, capture_path, num_queries =
    match Sys.argv with
    | [| _; l; c |] -> (l, c, 60)
    | [| _; l; c; n |] -> (l, c, int_of_string n)
    | _ -> die "usage: serve_smoke LATTICE_OUT CAPTURE_OUT [QUERIES]"
  in
  let db = Olar_datagen.Quest.generate params in
  let engine =
    Engine.at_threshold ~obs:(Olar_obs.Obs.create ()) db ~primary_support
  in
  (* save the PRE-serving state: the capture must replay against the
     lattice as it was before the served append mutated the engine *)
  Engine.save engine lattice_path;
  (try Sys.remove capture_path with Sys_error _ -> ());
  let config =
    { Server.default_config with Server.port = 0; record = Some capture_path }
  in
  let keys = workload engine db num_queries in
  let served =
    Server.with_server ~config ~domains:2 ~budget_bytes:0 engine (fun srv ->
        let fd = connect (Server.port srv) in
        let buf = Buffer.create 8192 in
        let off = ref 0 in
        let served =
          List.fold_left
            (fun n k ->
              let body = Record.key_to_json_line k in
              match post fd buf off body with
              | 200 -> n + 1
              | s -> die "query %d answered %d (body %s)" n s body)
            0 keys
        in
        (try Unix.close fd with _ -> ());
        served)
  in
  if served <> num_queries then
    die "served %d of %d queries" served num_queries;
  (* the server records every successfully served query *)
  let lines = ref 0 in
  In_channel.with_open_text capture_path (fun ic ->
      try
        while true do
          ignore (input_line ic);
          incr lines
        done
      with End_of_file -> ());
  if !lines <> num_queries then
    die "capture holds %d records, expected %d" !lines num_queries;
  Printf.printf "serve smoke: served and captured %d queries over loopback\n"
    num_queries
