(* The output oracle: the digest each request must carry, computed by
   serial in-process execution (a budget-0 Session, digested by the
   replay layer's Recorder semantics, which Replay.digest_response and
   the server's wire digest share).

   Generation g is the lattice after the first g appends of the
   workload, folded serially in send order. Generation 0 is computed
   for every distinct key before the timed window; later generations
   are computed on demand when a response is checked, because which
   (key, generation) pairs occur depends on timing. *)

module Engine = Olar_core.Engine
module Session = Olar_serve.Session
module Record = Olar_replay.Record
module Replay = Olar_replay.Replay
module Fnv = Olar_replay.Fnv

type t = {
  keys : Record.t array;
  engines : Engine.t array;  (** index = generation *)
  append_digests : string array;  (** hex digest of the k-th append's reply *)
  gen0 : string array;
  sessions : (int, Session.t) Hashtbl.t;
  memo : (int * int, string) Hashtbl.t;
}

(* Hex digest of [r] executed on [session]; [None] if it raised. *)
let digest session r =
  let out = ref None in
  ignore
    (Replay.run ~on_outcome:(fun o -> out := o.Replay.replayed) session [ r ]);
  Option.map (fun (x : Record.t) -> Fnv.to_hex x.Record.digest) !out

let expect_ok what = function
  | Some d -> d
  | None -> failwith (what ^ " raised under serial execution")

(* Gen-0 digests for every key, split over two domains, each with its
   own session on a private view of the engine. *)
let precompute keys engine =
  let n = Array.length keys in
  let out = Array.make n "" in
  let work d () =
    let s = Session.create ~budget_bytes:0 (Engine.view engine) in
    let i = ref d in
    while !i < n do
      out.(!i) <- expect_ok "workload request" (digest s keys.(!i));
      i := !i + 2
    done
  in
  let other = Domain.spawn (work 1) in
  work 0 ();
  Domain.join other;
  out

let create base (wl : Workload.t) =
  let fold = Session.create ~budget_bytes:0 base in
  let engines = ref [ base ] in
  let append_digests =
    Array.map
      (fun r ->
        let d = expect_ok "append" (digest fold r) in
        engines := Session.engine fold :: !engines;
        d)
      wl.appends
  in
  {
    keys = wl.keys;
    engines = Array.of_list (List.rev !engines);
    append_digests;
    gen0 = precompute wl.keys base;
    sessions = Hashtbl.create 16;
    memo = Hashtbl.create 4096;
  }

let expected t ~key ~gen =
  if gen = 0 then t.gen0.(key)
  else
    match Hashtbl.find_opt t.memo (gen, key) with
    | Some d -> d
    | None ->
      let s =
        match Hashtbl.find_opt t.sessions gen with
        | Some s -> s
        | None ->
          let s = Session.create ~budget_bytes:0 t.engines.(gen) in
          Hashtbl.add t.sessions gen s;
          s
      in
      let d = expect_ok "workload request" (digest s t.keys.(key)) in
      Hashtbl.add t.memo (gen, key) d;
      d

(* A read answered while the server's generation could lie anywhere in
   [lo, hi] (appends acknowledged before it was sent, appends sent
   before it returned) is correct if it matches any of them. *)
let matches t ~key ~lo ~hi digest =
  let rec go g = g <= hi && (String.equal (expected t ~key ~gen:g) digest || go (g + 1)) in
  go lo
