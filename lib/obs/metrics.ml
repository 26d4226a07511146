module Counter = Olar_util.Timer.Counter

module Gauge = struct
  type t = {
    name : string;
    value : float Atomic.t;
  }

  let create name = { name; value = Atomic.make 0.0 }
  let name g = g.name
  let set g v = Atomic.set g.value v
  let set_int g v = Atomic.set g.value (float_of_int v)
  let value g = Atomic.get g.value

  (* Lock-free monotone maximum: raise the cell to [v] unless a racing
     writer already raised it higher. This is what high-water marks
     (queue-depth peak) need — a read-then-set from two admission
     threads can lose the larger value; CAS-max cannot. *)
  let max_float g v =
    let rec go () =
      let cur = Atomic.get g.value in
      if v > cur && not (Atomic.compare_and_set g.value cur v) then go ()
    in
    go ()

  let max_int g v = max_float g (float_of_int v)
end

module Histogram = struct
  type t = {
    name : string;
    bounds : float array; (* strictly increasing upper bounds *)
    counts : int Atomic.t array; (* length bounds + 1; last slot overflow *)
    sum : float Atomic.t;
    total : int Atomic.t;
  }

  let log_bounds ?(lo = 1e-6) ?(decades = 9) ?(per_decade = 5) () =
    if lo <= 0.0 || decades < 1 || per_decade < 1 then
      invalid_arg "Histogram.log_bounds";
    Array.init
      ((decades * per_decade) + 1)
      (fun i -> lo *. (10.0 ** (float_of_int i /. float_of_int per_decade)))

  let of_bounds name bounds =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Histogram.of_bounds: empty";
    for i = 1 to n - 1 do
      if not (bounds.(i) > bounds.(i - 1)) then
        invalid_arg "Histogram.of_bounds: bounds must increase strictly"
    done;
    {
      name;
      bounds;
      counts = Array.init (n + 1) (fun _ -> Atomic.make 0);
      sum = Atomic.make 0.0;
      total = Atomic.make 0;
    }

  let create ?lo ?decades ?per_decade name =
    of_bounds name (log_bounds ?lo ?decades ?per_decade ())

  let name h = h.name

  (* Index of the first bound >= v; [Array.length bounds] = overflow. *)
  let bucket_index h v =
    let n = Array.length h.bounds in
    if v <= h.bounds.(0) then 0
    else if v > h.bounds.(n - 1) then n
    else begin
      (* invariant: bounds.(lo) < v <= bounds.(hi) *)
      let lo = ref 0 and hi = ref (n - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if h.bounds.(mid) < v then lo := mid else hi := mid
      done;
      !hi
    end

  (* The float sum has no fetch-and-add, so it takes a CAS loop. Bucket
     and total increments are plain fetch-and-adds. A reader between a
     bucket bump and the total bump can observe a sum/total one sample
     behind the buckets — acceptable for exposition, which never claims
     a consistent snapshot across instruments anyway. *)
  let add_sum h v =
    let rec go () =
      let cur = Atomic.get h.sum in
      if not (Atomic.compare_and_set h.sum cur (cur +. v)) then go ()
    in
    go ()

  let observe h v =
    let i = bucket_index h v in
    ignore (Atomic.fetch_and_add h.counts.(i) 1);
    add_sum h v;
    ignore (Atomic.fetch_and_add h.total 1)

  let count h = Atomic.get h.total
  let sum h = Atomic.get h.sum

  let mean h =
    let total = Atomic.get h.total in
    if total = 0 then Float.nan else Atomic.get h.sum /. float_of_int total

  let bounds h = Array.copy h.bounds
  let counts h = Array.map Atomic.get h.counts

  (* Upper bound of the smallest bucket at which the cumulative count
     reaches q * total (Prometheus-style upper-bound estimate). The
     overflow bucket reports [infinity]; an empty histogram [nan].
     Shared by the live [quantile] below and by {!Window}, which walks
     diffed (windowed) bucket counts against the same bounds. *)
  let quantile_of ~bounds ~counts q =
    if not (q >= 0.0 && q <= 1.0) then invalid_arg "Histogram.quantile";
    if Array.length counts <> Array.length bounds + 1 then
      invalid_arg "Histogram.quantile_of: counts/bounds length mismatch";
    let total = Array.fold_left ( + ) 0 counts in
    if total = 0 then Float.nan
    else begin
      let target =
        max 1 (int_of_float (ceil ((q *. float_of_int total) -. 1e-9)))
      in
      let last = Array.length counts - 1 in
      let i = ref 0 in
      let cum = ref counts.(0) in
      while !cum < target && !i < last do
        incr i;
        cum := !cum + counts.(!i)
      done;
      if !i < Array.length bounds then bounds.(!i) else Float.infinity
    end

  (* Bucket counts are snapshotted once so a concurrent [observe]
     cannot make the cumulative walk inconsistent. *)
  let quantile h q =
    quantile_of ~bounds:h.bounds ~counts:(Array.map Atomic.get h.counts) q
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type entry = {
  name : string;
  help : string;
  labels : (string * string) list;
  metric : metric;
}

(* The registry's hashtable is shared by every domain that interns or
   looks up an instrument (the serving pool's workers all hold the same
   obs ctx), so every access goes through [lock]. Interning is off the
   query hot path: kernels and query spans ([Obs.query]) hold direct
   instrument handles. *)
type t = {
  mu : Mutex.t;
  by_name : (string, entry) Hashtbl.t;
  mutable order_rev : string list; (* registration order, newest first *)
  mutable collect_hooks : (unit -> unit) list; (* newest first *)
}

let create () =
  {
    mu = Mutex.create ();
    by_name = Hashtbl.create 32;
    order_rev = [];
    collect_hooks = [];
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Instruments with constant labels intern under name + rendered labels,
   so one metric name can carry several labelled series (the phase
   histograms olar_http_phase_seconds{phase="..."}). Label-free
   instruments keep their bare name as the key. *)
let series_key name labels =
  match labels with
  | [] -> name
  | kvs ->
    name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
    ^ "}"

(* First registered series of a base name, in registration order. An
   unlabelled lookup that misses falls back here, preserving the
   pre-series contract that [gauge t "olar_build_info"] finds the cell
   registered with labels. Call under the lock. *)
let find_base_locked t name =
  let rec go = function
    | [] -> None
    | key :: rest -> (
      match Hashtbl.find_opt t.by_name key with
      | Some e when e.name = name -> Some e
      | _ -> go rest)
  in
  go (List.rev t.order_rev)

let register t ~key name help labels metric =
  Hashtbl.replace t.by_name key { name; help; labels; metric };
  t.order_rev <- key :: t.order_rev

let kind_error name = invalid_arg ("Metrics: " ^ name ^ " registered with another kind")

let counter t ?(help = "") ?(labels = []) name =
  locked t (fun () ->
      let key = series_key name labels in
      match Hashtbl.find_opt t.by_name key with
      | Some { metric = M_counter c; _ } -> c
      | Some _ -> kind_error name
      | None -> (
        match if labels = [] then find_base_locked t name else None with
        | Some { metric = M_counter c; _ } -> c
        | Some _ -> kind_error name
        | None ->
          let c = Counter.create name in
          register t ~key name help labels (M_counter c);
          c))

let gauge t ?(help = "") ?(labels = []) name =
  locked t (fun () ->
      let key = series_key name labels in
      match Hashtbl.find_opt t.by_name key with
      | Some { metric = M_gauge g; _ } -> g
      | Some _ -> kind_error name
      | None -> (
        match if labels = [] then find_base_locked t name else None with
        | Some { metric = M_gauge g; _ } -> g
        | Some _ -> kind_error name
        | None ->
          let g = Gauge.create name in
          register t ~key name help labels (M_gauge g);
          g))

let histogram t ?(help = "") ?(labels = []) ?bounds name =
  locked t (fun () ->
      let key = series_key name labels in
      match Hashtbl.find_opt t.by_name key with
      | Some { metric = M_histogram h; _ } -> h
      | Some _ -> kind_error name
      | None -> (
        match if labels = [] then find_base_locked t name else None with
        | Some { metric = M_histogram h; _ } -> h
        | Some _ -> kind_error name
        | None ->
          let h =
            match bounds with
            | Some b -> Histogram.of_bounds name b
            | None -> Histogram.create name
          in
          register t ~key name help labels (M_histogram h);
          h))

(* Adopt a counter created elsewhere (e.g. a mining [Stats.t] field) so
   its counts surface in the registry without copying — the attached
   counter IS the registered one. A later attach under the same name
   replaces the earlier metric but keeps its registration slot. *)
let attach_counter t ?(help = "") ?name c =
  let name = match name with Some n -> n | None -> Counter.name c in
  locked t (fun () ->
      (match Hashtbl.find_opt t.by_name name with
      | Some { metric = M_counter _; _ } | None -> ()
      | Some _ -> kind_error name);
      if Hashtbl.mem t.by_name name then
        Hashtbl.replace t.by_name name
          { name; help; labels = []; metric = M_counter c }
      else register t ~key:name name help [] (M_counter c))

let find t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.by_name name with
      | Some e -> Some e
      | None -> find_base_locked t name)

(* Collect hooks run right before a registry is exposed, so sampled
   state (GC gauges, uptime, domain utilization) is fresh on every
   scrape without the hot path maintaining it. Registration takes the
   lock; [collect] runs the hooks outside it — a hook typically
   interns/sets gauges, which re-enters the registry. *)
let on_collect t hook =
  locked t (fun () -> t.collect_hooks <- hook :: t.collect_hooks)

let collect t =
  let hooks = locked t (fun () -> List.rev t.collect_hooks) in
  List.iter (fun hook -> hook ()) hooks

(* Snapshot under the lock, then visit outside it, so [f] may intern
   further instruments without deadlocking. *)
let to_list t =
  locked t (fun () ->
      List.filter_map
        (fun name -> Hashtbl.find_opt t.by_name name)
        (List.rev t.order_rev))

let iter t f = List.iter f (to_list t)
