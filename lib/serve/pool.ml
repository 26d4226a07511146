open Olar_data
module Engine = Olar_core.Engine
module Lattice = Olar_core.Lattice
module Obs = Olar_obs.Obs
module Metrics = Olar_obs.Metrics
module Timer = Olar_util.Timer

type request =
  | Find_itemsets of { containing : Itemset.t; minsup : float }
  | Count_itemsets of { containing : Itemset.t; minsup : float }
  | Essential_rules of {
      containing : Itemset.t;
      constraints : Olar_core.Boundary.constraints;
      minsup : float;
      minconf : float;
    }
  | All_rules of {
      containing : Itemset.t;
      constraints : Olar_core.Boundary.constraints;
      minsup : float;
      minconf : float;
    }
  | Single_consequent_rules of {
      containing : Itemset.t;
      minsup : float;
      minconf : float;
    }
  | Support_for_k_itemsets of { containing : Itemset.t; k : int }
  | Support_for_k_rules of { involving : Itemset.t; minconf : float; k : int }
  | Boundary of {
      target : Itemset.t;
      constraints : Olar_core.Boundary.constraints;
      minconf : float;
    }
  | Append of Database.t

type response =
  | R_items of (Itemset.t * int) array
  | R_count of int
  | R_rules of Olar_core.Rule.t list
  | R_level of float option
  | R_entries of (Itemset.t * float) list
  | R_promoted of { promoted : Itemset.t list; db_size : int }
  | R_error of string

type completion = {
  latency_s : float;
  wait_s : float;
  expired : bool;
  epoch : int;
  gen : int;
  path : Session.path;
}

let null_deliver (_ : response) (_ : completion) = ()
let dummy_request = Count_itemsets { containing = Itemset.empty; minsup = 1.0 }
let shed_response = R_error "deadline exceeded"

(* ------------------------------------------------------------------ *)
(* Published snapshots                                                 *)
(* ------------------------------------------------------------------ *)

(* One published database state: the engine slot 0 serves on plus a
   pre-built per-worker view ({!Engine.view}: same lattice, same epoch,
   private scratch) for every worker slot. The record is
   immutable; appends build the next one off to the side and swap the
   [published] pointer. *)
type snapshot = {
  gen : int; (* 0 at [create], +1 per successful append fold *)
  engine : Engine.t;
  views : Engine.t array; (* length num_domains - 1; views.(w) = slot w+1 *)
}

(* ------------------------------------------------------------------ *)
(* Submission shards                                                  *)
(* ------------------------------------------------------------------ *)

(* One pooled slot of a shard ring, in the Vyukov bounded-queue style:
   [c_seq] is the slot's sequence stamp. For ring position [p] (an
   ever-growing index; the slot is [p land mask]), [c_seq = p] means
   free for the producer, [c_seq = p + 1] means filled and claimable,
   and a consumer releases the slot for the next lap by stamping
   [p + capacity]. The stamp is the publication fence in both
   directions: fields are only written before a stamp and only read
   after observing one, so the mutable fields need no atomics and a
   request in flight costs zero allocation inside the pool. *)
type cell = {
  mutable c_req : request;
  mutable c_deliver : response -> completion -> unit;
  mutable c_submitted : float; (* Timer.monotonic_s when placed *)
  mutable c_deadline : float; (* [infinity] when the request has none *)
  c_seq : int Atomic.t;
}

(* A worker's submission shard. Single producer (whichever thread holds
   the intake lock), multiple consumers (the owning worker plus any
   stealing sibling, and the lock holder itself under backpressure or
   drain): producers probe [tail]'s slot stamp, consumers race on
   [head] with CAS. Parking is per-shard — one mutex/condvar pair
   nobody but this worker waits on — so waking one domain never touches
   the others. *)
type shard = {
  ring : cell array;
  mask : int;
  tail : int Atomic.t; (* producer cursor; written under the intake lock *)
  head : int Atomic.t; (* consumer claim cursor *)
  pmu : Mutex.t;
  pcv : Condition.t;
  parked : bool Atomic.t;
}

(* Worker-local claim scratch: [try_pop] copies the claimed cell's
   fields here before releasing the cell, so the claim itself allocates
   nothing and the producer can reuse the slot immediately. *)
type slot = {
  mutable s_req : request;
  mutable s_deliver : response -> completion -> unit;
  mutable s_submitted : float;
  mutable s_deadline : float;
}

let shard_capacity = 64 (* power of two; bounds per-shard backlog *)

let make_shard () =
  {
    ring =
      Array.init shard_capacity (fun i ->
          {
            c_req = dummy_request;
            c_deliver = null_deliver;
            c_submitted = 0.0;
            c_deadline = infinity;
            c_seq = Atomic.make i;
          });
    mask = shard_capacity - 1;
    tail = Atomic.make 0;
    head = Atomic.make 0;
    pmu = Mutex.create ();
    pcv = Condition.create ();
    parked = Atomic.make false;
  }

let make_slot () =
  {
    s_req = dummy_request;
    s_deliver = null_deliver;
    s_submitted = 0.0;
    s_deadline = infinity;
  }

(* The intake lock serialises every producer-side step and everything
   that runs on slot 0's session: the fields marked "intake" below are
   read and written only while holding it. *)
type t = {
  published : snapshot Atomic.t; (* swapped at appends, under intake *)
  num_domains : int;
  sessions : Session.t array; (* slot 0 = intake, 1.. = workers *)
  adopted : int Atomic.t array; (* per-slot adopted generation *)
  mutable retired : snapshot list; (* intake; see [reclaim] *)
  mutable workers : unit Domain.t array;
  shards : shard array; (* length num_domains - 1; shard k feeds slot k+1 *)
  intake : Mutex.t;
  mutable rr : int; (* intake: rotation seed for shard picks *)
  inflight : int Atomic.t; (* placed in a ring, not yet delivered *)
  qmu : Mutex.t; (* drain's quiesce parking *)
  qcv : Condition.t;
  drain_waiting : bool Atomic.t;
  stop : bool Atomic.t;
  mutable closed : bool; (* intake *)
  served : int Atomic.t array; (* per-slot requests executed *)
  busy_ns : int Atomic.t array; (* per-slot execution nanoseconds *)
  dispatch_wait : Metrics.Histogram.t;
  deliver_exn : exn option Atomic.t; (* first callback escape, for drain *)
  intake_slot : slot; (* intake: claim scratch for helping *)
}

type domain_stat = {
  requests : int;
  busy_s : float;
}

(* Charge [dt] seconds of execution to slot [idx]. Both cells take a
   plain [fetch_and_add] — seconds accumulate as integer nanoseconds,
   so a contended slot never spins the way a CAS-retry float add
   would. *)
let note_work t idx dt =
  ignore (Atomic.fetch_and_add t.served.(idx) 1);
  ignore
    (Atomic.fetch_and_add t.busy_ns.(idx)
       (int_of_float ((dt *. 1e9) +. 0.5)))

(* ------------------------------------------------------------------ *)
(* Snapshot adoption and reclamation                                  *)
(* ------------------------------------------------------------------ *)

(* Move slot [idx] onto the currently published snapshot if it is
   behind. Called by a worker right after a winning claim (the claim's
   stamp read happened after the producer's stamp write, which happened
   after any publish that preceded the submit — SC atomics — so a
   request submitted after an append can never execute on the
   pre-append snapshot) and again before parking, so an idle domain
   never pins a retired snapshot. [adopted.(idx)] is written only by
   the slot's own domain (slot 0 inside the fold, under the intake
   lock); it is atomic so [reclaim] can read every slot. *)
let maybe_adopt t idx =
  let snap = Atomic.get t.published in
  if snap.gen > Atomic.get t.adopted.(idx) then begin
    Session.adopt_engine t.sessions.(idx) snap.views.(idx - 1);
    Atomic.set t.adopted.(idx) snap.gen
  end

(* Drop every retired snapshot that no slot can still be executing on:
   once min(adopted) has advanced past gen g, no future claim can run
   on the gen-g snapshot (claims adopt forward, never backward), so it
   is unreachable and the GC may have it. Under the intake lock —
   [retired] is an ordinary mutable field. *)
let reclaim t =
  match t.retired with
  | [] -> ()
  | retired ->
    let floor =
      Array.fold_left (fun m a -> min m (Atomic.get a)) max_int t.adopted
    in
    t.retired <- List.filter (fun s -> s.gen >= floor) retired

(* ------------------------------------------------------------------ *)
(* Shard operations                                                   *)
(* ------------------------------------------------------------------ *)

(* Claim one request from [sh] into [slot]. Fields are read after the
   winning CAS on [head] (sole ownership) and the cell is released —
   with its closure reference dropped, so delivered callbacks are not
   retained for a lap — before execution begins. *)
let try_pop sh slot =
  let rec go () =
    let h = Atomic.get sh.head in
    let cell = sh.ring.(h land sh.mask) in
    let s = Atomic.get cell.c_seq in
    if s = h + 1 then
      if Atomic.compare_and_set sh.head h (h + 1) then begin
        slot.s_req <- cell.c_req;
        slot.s_deliver <- cell.c_deliver;
        slot.s_submitted <- cell.c_submitted;
        slot.s_deadline <- cell.c_deadline;
        cell.c_req <- dummy_request;
        cell.c_deliver <- null_deliver;
        Atomic.set cell.c_seq (h + Array.length sh.ring);
        true
      end
      else go () (* lost the claim race; re-probe *)
    else if s > h + 1 then go () (* stale head read; re-probe *)
    else false (* empty, or mid-publication *)
  in
  go ()

(* Producer side; single-threaded because it runs under the intake
   lock. *)
let try_push sh req deliver deadline =
  let p = Atomic.get sh.tail in
  let cell = sh.ring.(p land sh.mask) in
  if Atomic.get cell.c_seq = p then begin
    cell.c_req <- req;
    cell.c_deliver <- deliver;
    cell.c_submitted <- Timer.monotonic_s ();
    cell.c_deadline <- deadline;
    Atomic.set cell.c_seq (p + 1);
    Atomic.set sh.tail (p + 1);
    true
  end
  else false (* the slot is still claimed: the ring is full *)

(* Is any shard non-empty? Probes the head slot's stamp only — the
   parking recheck, so it must be cheap. *)
let has_work t =
  let n = Array.length t.shards in
  let rec go k =
    if k >= n then false
    else
      let sh = t.shards.(k) in
      let h = Atomic.get sh.head in
      if Atomic.get sh.ring.(h land sh.mask).c_seq = h + 1 then true
      else go (k + 1)
  in
  go 0

let unpark sh =
  Mutex.lock sh.pmu;
  Atomic.set sh.parked false;
  Condition.signal sh.pcv;
  Mutex.unlock sh.pmu

(* Wake policy after pushing into shard [k]: the owner if it is parked;
   otherwise any parked sibling, which will find the request by
   stealing. A request never waits on a parked pool. *)
let wake t k =
  let n = Array.length t.shards in
  let sh = t.shards.(k) in
  if Atomic.get sh.parked then unpark sh
  else
    let rec scan i =
      if i < n then
        let s = t.shards.((k + i) mod n) in
        if Atomic.get s.parked then unpark s else scan (i + 1)
    in
    scan 1

(* Wake every parked worker — the publish-side half of adoption. Pairs
   with the worker's park sequence the same way [wake] pairs with the
   emptiness recheck: either this scan sees the worker's [parked] flag
   and signals it awake (it adopts at the top of its loop), or the
   worker set the flag after the scan read it, in which case the
   worker's own pre-park [maybe_adopt] — which runs after setting the
   flag — is ordered after the publish and sees the new snapshot. *)
let wake_all t =
  Array.iter (fun sh -> if Atomic.get sh.parked then unpark sh) t.shards

(* ------------------------------------------------------------------ *)
(* Request execution and snapshot publication                         *)
(* ------------------------------------------------------------------ *)

let materialize lat ids =
  Array.map (fun v -> (Lattice.itemset lat v, Lattice.support lat v)) ids

(* The serial executor: one request on one session, by value. Raises
   whatever the session raises; [execute] turns that into [R_error]. *)
let exec session = function
  | Find_itemsets { containing; minsup } ->
    let ids = Session.itemset_ids ~containing session ~minsup in
    R_items (materialize (Engine.lattice (Session.engine session)) ids)
  | Count_itemsets { containing; minsup } ->
    R_count (Session.count_itemsets ~containing session ~minsup)
  | Essential_rules { containing; constraints; minsup; minconf } ->
    R_rules
      (Session.essential_rules ~containing ~constraints session ~minsup ~minconf)
  | All_rules { containing; constraints; minsup; minconf } ->
    R_rules (Session.all_rules ~containing ~constraints session ~minsup ~minconf)
  | Single_consequent_rules { containing; minsup; minconf } ->
    R_rules
      (Session.single_consequent_rules ~containing session ~minsup ~minconf)
  | Support_for_k_itemsets { containing; k } ->
    R_level (Session.support_for_k_itemsets session ~containing ~k)
  | Support_for_k_rules { involving; minconf; k } ->
    R_level (Session.support_for_k_rules session ~involving ~minconf ~k)
  | Boundary { target; constraints; minconf } ->
    R_entries (Session.boundary ~constraints session ~target ~minconf)
  | Append delta ->
    let promoted = Session.append session delta in
    R_promoted { promoted; db_size = Engine.db_size (Session.engine session) }

(* The append path, and the one place the published pointer moves; it
   runs on slot 0 under the intake lock. No quiesce: readers in flight
   keep traversing the old snapshot (immutable, still referenced from
   [retired]) while this builds and swaps in the new one. The fold
   itself is [exec] of the [Append] on slot 0's session — the serial
   [Session.append], the single mutation path, so pool appends and
   serial appends are the same code. Publication order matters: the pointer swap precedes any
   subsequent cell stamp, so every request submitted after this append
   is claimed after the swap and adopts gen >= [snap.gen] (see
   [maybe_adopt]). *)
let publish_append t req =
  let resp = exec t.sessions.(0) req in
  let engine = Session.engine t.sessions.(0) in
  let old = Atomic.get t.published in
  let snap =
    {
      gen = old.gen + 1;
      engine;
      views = Array.init (t.num_domains - 1) (fun _ -> Engine.view engine);
    }
  in
  Atomic.set t.published snap;
  Atomic.set t.adopted.(0) snap.gen;
  t.retired <- old :: t.retired;
  reclaim t;
  (* parked workers have no next claim to adopt at — wake them all *)
  wake_all t;
  resp

(* Every exception becomes [R_error]: a bad threshold in one request
   must not poison the rest of the stream, and the serial comparison
   path raises the identical exception, keeping digests stable. An
   [Append] only ever reaches slot 0 under the intake lock — appends
   never enter a ring. *)
let execute t idx req =
  try
    match req with
    | Append _ -> publish_append t req
    | _ -> exec t.sessions.(idx) req
  with e -> R_error (Printexc.to_string e)

let record_deliver_exn t e =
  ignore (Atomic.compare_and_set t.deliver_exn None (Some e))

(* Retire one ring request: the last decrement wakes a thread parked in
   [drain] waiting for the stream to go quiet. *)
let finish_one t =
  if Atomic.fetch_and_add t.inflight (-1) = 1 && Atomic.get t.drain_waiting
  then begin
    Mutex.lock t.qmu;
    Condition.signal t.qcv;
    Mutex.unlock t.qmu
  end

(* Execute [req] on slot [idx] from [t0] and deliver it, or — when it
   was claimed past its deadline — deliver it shed, unexecuted. The
   completion stamps the view the request actually executed on:
   [adopted.(idx)] is written only by this slot's domain, so even if an
   append publishes mid-execution the recorded gen/epoch stay those of
   the snapshot this execution read. The cache path is read on this
   domain right after [execute], before the slot's next request can
   overwrite it; a shed or failed request consulted no cache. *)
let complete t idx ~t0 ~wait_s ~deadline req deliver =
  let expired = t0 > deadline in
  let resp = if expired then shed_response else execute t idx req in
  let latency_s =
    if expired then 0.0 else Float.max 0.0 (Timer.monotonic_s () -. t0)
  in
  if not expired then note_work t idx latency_s;
  let session = t.sessions.(idx) in
  let c =
    {
      latency_s;
      wait_s;
      expired;
      epoch = Engine.epoch (Session.engine session);
      gen = Atomic.get t.adopted.(idx);
      path =
        (match resp with
        | R_error _ -> Session.Passthrough
        | _ -> Session.last_path session);
    }
  in
  try deliver resp c with e -> record_deliver_exn t e

let exec_slot t idx slot =
  let req = slot.s_req and deliver = slot.s_deliver in
  slot.s_req <- dummy_request;
  slot.s_deliver <- null_deliver;
  let t0 = Timer.monotonic_s () in
  let wait_s = Float.max 0.0 (t0 -. slot.s_submitted) in
  Metrics.Histogram.observe t.dispatch_wait wait_s;
  complete t idx ~t0 ~wait_s ~deadline:slot.s_deadline req deliver;
  finish_one t

(* Intake-side help, under the intake lock: claim and execute one
   queued request on slot 0's session. Keeps the submitting threads'
   domain a serving participant during drains, and doubles as
   backpressure when every ring is full. Slot 0 is always on the latest
   snapshot (it is the one that publishes), so no adoption check. *)
let help_one t =
  let n = Array.length t.shards in
  let rec scan k =
    if k >= n then false
    else if try_pop t.shards.((t.rr + k) mod n) t.intake_slot then begin
      exec_slot t 0 t.intake_slot;
      true
    end
    else scan (k + 1)
  in
  n > 0 && scan 0

(* ------------------------------------------------------------------ *)
(* Worker loop                                                        *)
(* ------------------------------------------------------------------ *)

let worker_loop t w =
  let slot = make_slot () in
  let idx = w + 1 in
  let n = Array.length t.shards in
  let own = t.shards.(w) in
  (* own shard first, then steal from siblings in ring order *)
  let rec claim k = k < n && (try_pop t.shards.((w + k) mod n) slot || claim (k + 1)) in
  let rec go () =
    if not (Atomic.get t.stop) then
      if claim 0 then begin
        (* adopt after the claim, before executing: see [maybe_adopt] *)
        maybe_adopt t idx;
        exec_slot t idx slot;
        go ()
      end
      else begin
        (* Park. Publishing [parked] before the final emptiness recheck
           closes the lost-wakeup window: either the recheck sees the
           producer's publication, or the producer's [wake] sees the
           flag (both are SC atomics). The flag doubles as the wait
           predicate — [unpark] clears it under the mutex. *)
        Atomic.set own.parked true;
        if has_work t || Atomic.get t.stop then Atomic.set own.parked false
        else begin
          (* adopt before sleeping: after setting [parked], so the
             ordering against [wake_all] holds (see its comment), and an
             idle domain releases its reference to a retired snapshot *)
          maybe_adopt t idx;
          Mutex.lock own.pmu;
          while Atomic.get own.parked && not (Atomic.get t.stop) do
            Condition.wait own.pcv own.pmu
          done;
          Mutex.unlock own.pmu;
          Atomic.set own.parked false
        end;
        go ()
      end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Construction / teardown                                            *)
(* ------------------------------------------------------------------ *)

let dispatch_wait_name = "olar_pool_dispatch_wait_seconds"

let create ?domains ?budget_bytes engine =
  let d =
    match domains with
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  if d < 1 then invalid_arg "Pool.create: domains must be >= 1";
  let obs = Engine.obs engine in
  (* Snapshot gen 0: the caller's engine plus one view per worker —
     same lattice, same epoch, private scratch each. *)
  let views = Array.init (d - 1) (fun _ -> Engine.view engine) in
  let sessions =
    Array.init d (fun i ->
        if i = 0 then Session.create ?budget_bytes engine
        else Session.create ?budget_bytes views.(i - 1))
  in
  let dispatch_wait =
    match obs with
    | Some ctx ->
      Metrics.histogram (Obs.metrics ctx)
        ~help:"Seconds between submit and a domain claiming the request"
        dispatch_wait_name
    | None -> Metrics.Histogram.create dispatch_wait_name
  in
  let t =
    {
      published = Atomic.make { gen = 0; engine; views };
      num_domains = d;
      sessions;
      adopted = Array.init d (fun _ -> Atomic.make 0);
      retired = [];
      workers = [||];
      shards = Array.init (d - 1) (fun _ -> make_shard ());
      intake = Mutex.create ();
      rr = 0;
      inflight = Atomic.make 0;
      qmu = Mutex.create ();
      qcv = Condition.create ();
      drain_waiting = Atomic.make false;
      stop = Atomic.make false;
      closed = false;
      served = Array.init d (fun _ -> Atomic.make 0);
      busy_ns = Array.init d (fun _ -> Atomic.make 0);
      dispatch_wait;
      deliver_exn = Atomic.make None;
      intake_slot = make_slot ();
    }
  in
  t.workers <-
    Array.init (d - 1) (fun w -> Domain.spawn (fun () -> worker_loop t w));
  t

let domains t = t.num_domains
let engine t = (Atomic.get t.published).engine
let generation t = (Atomic.get t.published).gen
let stats t = Array.map Session.stats t.sessions

let domain_stats t =
  Array.init t.num_domains (fun i ->
      {
        requests = Atomic.get t.served.(i);
        busy_s = float_of_int (Atomic.get t.busy_ns.(i)) /. 1e9;
      })

let dispatch_wait t = t.dispatch_wait

let shard_depths t =
  Array.map (fun sh -> max 0 (Atomic.get sh.tail - Atomic.get sh.head)) t.shards

let retired_snapshots t =
  Mutex.protect t.intake (fun () ->
      reclaim t;
      List.length t.retired)

(* ------------------------------------------------------------------ *)
(* Quiesce                                                            *)
(* ------------------------------------------------------------------ *)

(* Wait out every request in the rings. Runs under the intake lock, so
   intake has stopped; it helps drain the shards, and only parks — on
   its own condvar, woken by whichever domain retires the last request —
   for requests a worker already claimed. *)
let drain_quiet t =
  while help_one t do
    ()
  done;
  if Atomic.get t.inflight > 0 then begin
    Mutex.lock t.qmu;
    Atomic.set t.drain_waiting true;
    while Atomic.get t.inflight > 0 do
      Condition.wait t.qcv t.qmu
    done;
    Atomic.set t.drain_waiting false;
    Mutex.unlock t.qmu
  end

let drain t =
  Mutex.protect t.intake (fun () -> drain_quiet t);
  match Atomic.exchange t.deliver_exn None with
  | Some e -> raise e
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Submission                                                         *)
(* ------------------------------------------------------------------ *)

let pick_shard t =
  let n = Array.length t.shards in
  let start = t.rr in
  t.rr <- (if start + 1 >= n then 0 else start + 1);
  let best = ref start and best_depth = ref max_int in
  for k = 0 to n - 1 do
    let i = (start + k) mod n in
    let sh = t.shards.(i) in
    let depth = Atomic.get sh.tail - Atomic.get sh.head in
    if depth < !best_depth then begin
      best := i;
      best_depth := depth
    end
  done;
  !best

(* Under the intake lock. Appends and 1-domain pools run inline on
   slot 0 — no ring crossed, so no dispatch wait is observed; everything
   else is placed into the least-loaded ring. *)
let place t req deliver deadline =
  let inline =
    t.num_domains = 1 || match req with Append _ -> true | _ -> false
  in
  if inline then
    complete t 0 ~t0:(Timer.monotonic_s ()) ~wait_s:0.0 ~deadline req deliver
  else begin
    ignore (Atomic.fetch_and_add t.inflight 1);
    let rec push () =
      let k = pick_shard t in
      if try_push t.shards.(k) req deliver deadline then wake t k
      else if help_one t then push ()
        (* every ring full: drained one request inline (backpressure),
           a slot is free somewhere now *)
      else begin
        (* full rings but nothing claimable — consumers hold claims
           mid-copy; yield and re-probe *)
        Domain.cpu_relax ();
        push ()
      end
    in
    push ()
  end

let submit ?(deadline = infinity) t req deliver =
  Mutex.lock t.intake;
  if t.closed then begin
    Mutex.unlock t.intake;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  place t req deliver deadline;
  Mutex.unlock t.intake

let shutdown t =
  Mutex.lock t.intake;
  let first = not t.closed in
  if first then begin
    t.closed <- true;
    (* retire anything already submitted before stopping the loops *)
    drain_quiet t
  end;
  Mutex.unlock t.intake;
  if first then begin
    Atomic.set t.stop true;
    Array.iter unpark t.shards;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?domains ?budget_bytes engine f =
  let t = create ?domains ?budget_bytes engine in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Batch helper                                                       *)
(* ------------------------------------------------------------------ *)

(* Keeps the old sequential semantics on top of non-blocking appends by
   draining before each [Append] submission: within one batch, every
   request before an append executes on the pre-append snapshot and
   every request after it on the post-append one — exactly what a
   serial [Session] does, so positional digest equality against serial
   execution still holds. Streaming callers that want appends to
   overlap reads use {!submit} directly. *)
let run t reqs =
  if t.closed then invalid_arg "Pool.run: pool is shut down";
  let out = Array.make (Array.length reqs) None in
  Array.iteri
    (fun i req ->
      (match req with Append _ -> drain t | _ -> ());
      submit t req (fun resp c -> out.(i) <- Some (resp, c)))
    reqs;
  (* every completion's inflight decrement happened-before the drain's
     zero read, so the [out] writes are visible here *)
  drain t;
  Array.map Option.get out
