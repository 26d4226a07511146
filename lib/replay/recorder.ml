module Session = Olar_serve.Session
module Pool = Olar_serve.Pool
module Engine = Olar_core.Engine
module Obs = Olar_obs.Obs
module Counter = Olar_util.Timer.Counter

type t = {
  session : Session.t;
  emit : Record.t -> unit;
  slow_s : float;
  clock : unit -> float;
  mutable seq : int;
  work_v : Counter.t option;
  work_h : Counter.t option;
      (* the engine context's shared work counters (the same cells the
         engine's query spans bump), so per-query work is a plain delta *)
}

let create ?(slow_s = 0.0) ?(clock = Olar_util.Timer.monotonic_s) ~emit session =
  let obs = Engine.obs (Session.engine session) in
  {
    session;
    emit;
    slow_s;
    clock;
    seq = 0;
    work_v =
      Option.map
        (fun ctx -> Obs.counter ctx "olar_query_vertices_visited_total")
        obs;
    work_h =
      Option.map (fun ctx -> Obs.counter ctx "olar_query_heap_pops_total") obs;
  }

let session t = t.session
let count t = t.seq

let value = function Some c -> Counter.value c | None -> 0

(* An exception from the conversion or the executor propagates before
   the sequence number moves or any record is built. *)
let run t key =
  let req =
    match Record.to_request key with Ok req -> req | Error e -> failwith e
  in
  let v0 = value t.work_v and h0 = value t.work_h in
  let t0 = t.clock () in
  let resp = Pool.exec t.session req in
  (* The default clock is monotone, but an injected one (or a platform
     where only a steppable wall clock exists) may run backwards;
     a latency must never be negative, so clamp. *)
  let latency_s = Float.max 0.0 (t.clock () -. t0) in
  let seq = t.seq in
  t.seq <- seq + 1;
  if latency_s >= t.slow_s then
    Option.iter t.emit
      (Record.with_outcome key ~seq
         ~cache:(Session.last_path t.session)
         ~latency_s
         ~vertices:(value t.work_v - v0)
         ~heap_pops:(value t.work_h - h0)
         ~epoch:(Engine.epoch (Session.engine t.session))
         resp);
  resp
