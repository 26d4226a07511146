(* The wire client: one process, one thread, [Workload.connections]
   persistent HTTP/1.1 connections to `olar serve`, multiplexed with
   select(2). A single thread means client bookkeeping never competes
   with itself for the OCaml runtime lock, so the latency it records is
   the server's plus the loopback, not the client scheduler's.

   Closed loop: each connection sends its next request when the last
   reply arrives. Open loop: requests fall due on a fixed schedule and
   are sent (pipelined) when due, whatever is outstanding; each is timed
   from its due time, and the generator's own lateness is recorded. *)

let timeout_s = 10.0

type pending = {
  key : int;  (** read key id, or [-1 - k] for the k-th append *)
  due : float;  (** latency origin: send time (closed) or due time (open) *)
  sent : float;
  lo : int;  (** appends acknowledged when this was sent *)
}

type conn = {
  mutable fd : Unix.file_descr option;
  buf : Buffer.t;
  mutable off : int;
  queue : pending Queue.t;
  mutable pos : int;  (** next position in this connection's stream *)
}

type span = {
  s_key : int;
  s_due : float;
  s_sent : float;
  s_done : float;
  s_status : int;
  s_bytes : int;
}

type t = {
  wl : Workload.t;
  oracle : Oracle.t;
  port : int;
  conns : conn array;
  chunk : Bytes.t;
  mutable recording : bool;
  mutable tracing : bool;
  lat : Samples.t;  (** read round trips, seconds *)
  done_at : Samples.t;  (** completion time of each [lat] sample *)
  mutable t0 : float;  (** start of the current window *)
  append_lat : Samples.t;
  lag : Samples.t;  (** open loop: send time minus due time *)
  mutable served : int;  (** 200 replies since start, for settling scrapes *)
  mutable attempted : int;
  mutable failed : int;
  mutable ok_reads : int;
  mutable resp_bytes : int;
  mutable appends_sent : int;
  mutable appends_acked : int;
  mutable mismatches : string list;
  mutable deferred : (int * int * int * string) list;
      (** (key, lo, hi, digest) checked after the window *)
  mutable spans : span list;
}

let create wl oracle ~port =
  {
    wl;
    oracle;
    port;
    conns =
      Array.init wl.Workload.spec.connections (fun _ ->
          { fd = None; buf = Buffer.create 65536; off = 0; queue = Queue.create (); pos = 0 });
    chunk = Bytes.create 65536;
    recording = false;
    tracing = false;
    lat = Samples.create ();
    done_at = Samples.create ();
    t0 = 0.0;
    append_lat = Samples.create ();
    lag = Samples.create ();
    served = 0;
    attempted = 0;
    failed = 0;
    ok_reads = 0;
    resp_bytes = 0;
    appends_sent = 0;
    appends_acked = 0;
    mismatches = [];
    deferred = [];
    spans = [];
  }

let now = Olar_util.Timer.monotonic_s

let connect t =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, t.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go o = if o < Bytes.length b then go (o + Unix.write fd b o (Bytes.length b - o)) in
  go 0

let mismatch t fmt = Printf.ksprintf (fun m -> t.mismatches <- m :: t.mismatches) fmt

(* Every request that does not come back 200 with a checked digest is a
   failure: a shed (429/503), another 4xx/5xx, a transport error or a
   timeout. *)
let fail t = if t.recording then t.failed <- t.failed + 1

let drop_conn t c =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) c.fd;
  c.fd <- None;
  Buffer.clear c.buf;
  c.off <- 0;
  Queue.iter (fun _ -> fail t) c.queue;
  Queue.clear c.queue

let send t ci ~key ~due =
  let c = t.conns.(ci) in
  let body = if key >= 0 then t.wl.bodies.(key) else t.wl.append_bodies.(-1 - key) in
  let req = Olar_net.Http.render_request ~meth:"POST" ~target:"/query" body in
  if t.recording then t.attempted <- t.attempted + 1;
  if key < 0 then t.appends_sent <- t.appends_sent + 1;
  let sent = now () in
  match
    let fd = match c.fd with Some fd -> fd | None -> connect t in
    c.fd <- Some fd;
    write_all fd req
  with
  | () ->
    if t.recording && due < sent then Samples.add t.lag (sent -. due);
    Queue.add { key; due; sent; lo = t.appends_acked } c.queue
  | exception Unix.Unix_error _ ->
    fail t;
    drop_conn t c

(* The hex digest in a /query reply; the server puts it ahead of the
   (possibly large) result, so only a short prefix is searched. *)
let digest_of prefix =
  let tag = {|"digest":"|} in
  let n = String.length tag and len = String.length prefix in
  let rec go i =
    if i + n > len then None
    else if String.sub prefix i n = tag then
      match String.index_from_opt prefix (i + n) '"' with
      | Some j -> Some (String.sub prefix (i + n) (j - i - n))
      | None -> None
    else go (i + 1)
  in
  go 0

let check t (p : pending) ~status ~digest ~bytes ~done_ =
  let ok = status = 200 && digest <> None in
  if status = 200 then t.served <- t.served + 1;
  let digest = Option.value digest ~default:"" in
  if p.key < 0 then begin
    let k = -1 - p.key in
    t.appends_acked <- t.appends_acked + 1;
    if ok && not (String.equal digest t.oracle.Oracle.append_digests.(k)) then
      mismatch t "append %d: digest %s, serial %s" k digest
        t.oracle.Oracle.append_digests.(k);
    if ok && t.recording then Samples.add t.append_lat (done_ -. p.due)
  end
  else if ok then begin
    let hi = t.appends_sent in
    if hi = 0 then begin
      if not (String.equal digest (Oracle.expected t.oracle ~key:p.key ~gen:0)) then
        mismatch t "key %d: digest %s, serial %s" p.key digest
          (Oracle.expected t.oracle ~key:p.key ~gen:0)
    end
    else t.deferred <- (p.key, p.lo, hi, digest) :: t.deferred;
    if t.recording then begin
      t.ok_reads <- t.ok_reads + 1;
      t.resp_bytes <- t.resp_bytes + bytes;
      Samples.add t.lat (done_ -. p.due);
      Samples.add t.done_at done_
    end
  end;
  if not ok then fail t;
  if t.tracing then
    t.spans <-
      {
        s_key = p.key;
        s_due = p.due;
        s_sent = p.sent;
        s_done = done_;
        s_status = status;
        s_bytes = bytes;
      }
      :: t.spans

(* Pop every complete reply buffered on [c]; the number taken. *)
let take_replies t c =
  let taken = ref 0 in
  let rec loop () =
    let len = Buffer.length c.buf in
    let rec head_end i =
      if i + 3 >= len then None
      else if
        Buffer.nth c.buf i = '\r'
        && Buffer.nth c.buf (i + 1) = '\n'
        && Buffer.nth c.buf (i + 2) = '\r'
        && Buffer.nth c.buf (i + 3) = '\n'
      then Some (i + 4)
      else head_end (i + 1)
    in
    match head_end c.off with
    | None -> ()
    | Some he ->
      let head = String.lowercase_ascii (Buffer.sub c.buf c.off (he - c.off)) in
      let status = int_of_string (String.sub head 9 3) in
      let clen = Proc.find_int ~after:"content-length: " head in
      if len - he >= clen then begin
        let prefix = Buffer.sub c.buf he (min clen 256) in
        c.off <- he + clen;
        if c.off = len then begin
          Buffer.clear c.buf;
          c.off <- 0
        end;
        let p = Queue.pop c.queue in
        check t p ~status ~digest:(digest_of prefix) ~bytes:clen ~done_:(now ());
        incr taken;
        loop ()
      end
  in
  loop ();
  if c.off > 1 lsl 20 then begin
    let rest = Buffer.sub c.buf c.off (Buffer.length c.buf - c.off) in
    Buffer.clear c.buf;
    Buffer.add_string c.buf rest;
    c.off <- 0
  end;
  !taken

(* Wait up to [wait_s] for replies on any connection; calls [on_reply ci]
   once per reply taken. Expires requests older than [timeout_s]. *)
let poll t ~wait_s ~on_reply =
  let fds =
    Array.to_list t.conns
    |> List.filter_map (fun c -> if Queue.is_empty c.queue then None else c.fd)
  in
  let ready =
    if fds = [] then begin
      if wait_s > 0.0 then Unix.sleepf wait_s;
      []
    end
    else
      match Unix.select fds [] [] (Float.max 0.0 wait_s) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  Array.iteri
    (fun ci c ->
      match c.fd with
      | Some fd when List.mem fd ready -> (
        match Unix.read fd t.chunk 0 (Bytes.length t.chunk) with
        | 0 -> drop_conn t c
        | n ->
          Buffer.add_subbytes c.buf t.chunk 0 n;
          for _ = 1 to take_replies t c do
            on_reply ci
          done
        | exception Unix.Unix_error _ -> drop_conn t c)
      | _ -> ())
    t.conns;
  let expiry = now () -. timeout_s in
  Array.iter
    (fun c ->
      match Queue.peek_opt c.queue with
      | Some p when p.sent < expiry -> drop_conn t c
      | _ -> ())
    t.conns

let outstanding t = Array.exists (fun c -> not (Queue.is_empty c.queue)) t.conns

let next_key t ci =
  let c = t.conns.(ci) in
  let s = t.wl.streams.(ci) in
  let k = s.(c.pos mod Array.length s) in
  c.pos <- c.pos + 1;
  k

(* Closed loop for [seconds]; the elapsed wall time until the last reply. *)
let closed t ~seconds =
  let t0 = now () in
  t.t0 <- t0;
  let t_end = t0 +. seconds in
  let send_next ci =
    let n = now () in
    if n < t_end then send t ci ~key:(next_key t ci) ~due:n
  in
  Array.iteri (fun ci _ -> send_next ci) t.conns;
  while outstanding t do
    poll t ~wait_s:0.05 ~on_reply:send_next;
    (* a connection dropped by an error restarts its loop *)
    Array.iteri (fun ci c -> if Queue.is_empty c.queue then send_next ci) t.conns
  done;
  now () -. t0

(* Open loop for [seconds]: reads due every 1/rate s, alternating
   connections; appends [first, first + appends) due every [period] s on
   connection 0 (so they are folded in send order). *)
let open_loop t ~seconds ~rate ~period ~first ~appends =
  let t0 = now () in
  t.t0 <- t0;
  let t_end = t0 +. seconds in
  let reads = ref 0 and app = ref 0 in
  let read_due () = t0 +. (float_of_int !reads /. rate) in
  let append_due () = t0 +. ((float_of_int !app +. 0.5) *. period) in
  let more_reads () = read_due () < t_end in
  let more_appends () = !app < appends && append_due () < t_end in
  while more_reads () || more_appends () || outstanding t do
    let n = now () in
    while more_appends () && append_due () <= n do
      send t 0 ~key:(-1 - (first + !app)) ~due:(append_due ());
      incr app
    done;
    while more_reads () && read_due () <= n do
      let ci = !reads mod Array.length t.conns in
      send t ci ~key:(next_key t ci) ~due:(read_due ());
      incr reads
    done;
    let next =
      Float.min
        (if more_reads () then read_due () else infinity)
        (if more_appends () then append_due () else infinity)
    in
    poll t ~wait_s:(Float.min 0.05 (next -. now ())) ~on_reply:ignore
  done;
  now () -. t0

(* Per 1 s slice of the window [t0, t0 + seconds): ok reads, and the
   exact p50 and p99 of the read latencies completed in it. *)
let slices t ~seconds =
  let n = max 1 (int_of_float seconds) in
  let per = Array.init n (fun _ -> Samples.create ()) in
  for i = 0 to Samples.count t.lat - 1 do
    let k = int_of_float (Samples.get t.done_at i -. t.t0) in
    if k >= 0 && k < n then Samples.add per.(k) (Samples.get t.lat i)
  done;
  Array.map
    (fun s ->
      let sorted = Samples.sorted s in
      (float_of_int (Samples.count s), Samples.rank sorted 0.5, Samples.rank sorted 0.99))
    per

(* Closed-loop appends on connection 0, each followed by [reads] reads.
   The reads make the pool's workers claim work and adopt the new
   snapshot, as they do in service, so superseded snapshots are
   reclaimed between folds; back-to-back appends with idle workers would
   pile them up and slow every later fold. *)
let append_probe t ~first ~count ~reads =
  let settle () =
    while outstanding t do
      poll t ~wait_s:0.05 ~on_reply:ignore
    done
  in
  for k = first to first + count - 1 do
    send t 0 ~key:(-1 - k) ~due:(now ());
    settle ();
    for _ = 1 to reads do
      send t 0 ~key:(next_key t 0) ~due:(now ());
      settle ()
    done
  done

let check_deferred t =
  List.iter
    (fun (key, lo, hi, d) ->
      if not (Oracle.matches t.oracle ~key ~lo ~hi d) then
        mismatch t "key %d: digest %s matches no generation in [%d, %d]" key d lo hi)
    t.deferred;
  t.deferred <- []

let close t = Array.iter (drop_conn t) t.conns

let reset_stats t =
  Samples.clear t.lat;
  Samples.clear t.done_at;
  Samples.clear t.lag;
  t.attempted <- 0;
  t.failed <- 0;
  t.ok_reads <- 0;
  t.resp_bytes <- 0;
  t.spans <- []

let write_spans t path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          let kind =
            if s.s_key < 0 then "append"
            else Olar_replay.Record.kind_to_string t.wl.keys.(s.s_key).Olar_replay.Record.kind
          in
          Printf.fprintf oc
            {|{"name":"wire.request","kind":"%s","key":%d,"due":%.9f,"start":%.9f,"end":%.9f,"status":%d,"bytes":%d}|}
            kind s.s_key s.s_due s.s_sent s.s_done s.s_status s.s_bytes;
          output_char oc '\n')
        (List.rev t.spans))

(* {1 Scrapes of the server's own telemetry} *)

let get t path =
  match Olar_net.Client.get ~url:(Printf.sprintf "http://127.0.0.1:%d" t.port) path with
  | Ok (200, body) -> body
  | Ok (s, _) -> failwith (Printf.sprintf "GET %s: status %d" path s)
  | Error e -> failwith (Printf.sprintf "GET %s: %s" path e)

(* Sum of every sample of Prometheus series [name] (all label sets). *)
let prom_sum text name =
  List.fold_left
    (fun acc line ->
      let n = String.length name in
      if
        String.length line > n
        && String.sub line 0 n = name
        && (line.[n] = ' ' || line.[n] = '{')
      then
        match String.rindex_opt line ' ' with
        | Some i -> (
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v -> acc +. v
          | None -> acc)
        | None -> acc
      else acc)
    0.0
    (String.split_on_char '\n' text)

type scrape = { statusz : Olar_obs.Jsonx.t; metrics : string }

let scrape t =
  let statusz =
    match Olar_obs.Jsonx.of_string (get t "/statusz") with
    | Ok j -> j
    | Error e -> failwith ("/statusz: " ^ e)
  in
  { statusz; metrics = get t "/metrics" }

let phase s name field =
  match Option.bind (Olar_obs.Jsonx.path [ "phases"; name; field ] s.statusz) Olar_obs.Jsonx.number with
  | Some v -> v
  | None -> failwith ("/statusz lacks phases." ^ name ^ "." ^ field)

(* The write phase is observed after the reply is on the wire, so it
   can trail the client by a moment: scrape until its count has caught
   up with [served] (bounded). *)
let scrape_settled t ~served =
  let rec go attempts =
    let s = scrape t in
    if phase s "write" "count" >= float_of_int served || attempts >= 50 then s
    else begin
      Unix.sleepf 0.01;
      go (attempts + 1)
    end
  in
  go 0
