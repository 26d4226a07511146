(* The three workloads and the request streams they send.

   A request is an Olar_replay.Record query key: the same value is the
   wire body (Record.key_to_json_line), the serial oracle's input and
   the ladder's input, so every layer sees the identical stream. All
   randomness is drawn from the --seed argument. *)

open Olar_data
module Lattice = Olar_core.Lattice
module Record = Olar_replay.Record

type loop =
  | Closed  (** each connection sends its next request on the last reply *)
  | Open of { rate : float; append_period_s : float }
      (** reads due every [1/rate] s regardless of replies, plus one append
          every [append_period_s] s on connection 0 *)

type spec = {
  name : string;
  dataset : string;  (** `olar gen --name`, the paper's Tt.Ii.Dn notation *)
  support : float;  (** primary support given to `olar preprocess` *)
  cache_mb : int;  (** `olar serve --cache-mb` *)
  loop : loop;
  connections : int;  (** persistent connections, at most nproc *)
  explore : bool;  (** analyst mix: one session in ten explores *)
  setups : int;  (** set-ups per run; setup_s is their median *)
  stream_len : int;  (** requests per connection before the stream wraps *)
  probe_appends : int;  (** closed loops: appends timed after the window *)
  ladder_reads : int;  (** requests per ladder pass *)
}

(* Every run of a workload serves the same database, `olar gen`'s
   default seed (the lattice shapes quoted in README.md); --seed varies
   the request streams and append deltas. Lattice size swings by a
   third across generator seeds, which would swamp run-to-run spread. *)
let dataset_seed = 42

(* T10.I4 databases draw from `olar gen`'s default universe. *)
let universe = 1000

(* Why each workload exists is recorded in BENCHMARK.json and README.md.
   analyst: repeated drill-down settings, so the session cache serves
   most requests and the wire/admission/pool path dominates. scan: the
   paper's D100K scale with keys that rarely repeat, so the kernels and
   response rendering dominate. ingest: the analyst mix at a fixed
   offered rate with periodic appends, so writes run beside reads. *)
let specs =
  [
    {
      name = "analyst";
      dataset = "T10.I4.D10K";
      support = 0.002;
      cache_mb = 8;
      loop = Closed;
      (* One connection: on a two-core host a second one added no
         throughput (~10k qps either way), only client/server contention
         that doubled the run-to-run spread. *)
      connections = 1;
      explore = true;
      setups = 5;
      stream_len = 65536;
      probe_appends = 40;
      ladder_reads = 4096;
    };
    {
      name = "scan";
      dataset = "T10.I4.D100K";
      support = 0.001;
      cache_mb = 8;
      loop = Closed;
      connections = 2;
      explore = false;
      setups = 3;
      stream_len = 4096;
      probe_appends = 20;
      ladder_reads = 512;
    };
    {
      name = "ingest";
      dataset = "T10.I4.D10K";
      support = 0.002;
      cache_mb = 8;
      (* About one read in seven waits behind a fold, so p50 sits among
         the unqueued reads and p99 among the queued ones; at higher rates
         or shorter periods the post-fold backlog reaches half the reads
         and the median wanders between the two. *)
      loop = Open { rate = 1000.0; append_period_s = 1.0 };
      connections = 2;
      (* Favourites only: every append flushes the session caches, so
         each period recomputes the same favourite answers (about 40% of
         reads are still cache-served). Exploring sessions would add
         one-off answers whose cost depends on the seed; without them the
         read latencies repeat from period to period, and the run-to-run
         spread of p50 and p99 halves. *)
      explore = false;
      setups = 5;
      stream_len = 16384;
      probe_appends = 0;
      ladder_reads = 4096;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

type t = {
  spec : spec;
  keys : Record.t array;  (** distinct read keys, as the server parses them *)
  bodies : string array;  (** wire body of each key *)
  streams : int array array;  (** per connection: key ids in send order *)
  appends : Record.t array;  (** append keys in send order *)
  append_bodies : string array;
}

let blank kind =
  {
    Record.seq = 0;
    kind;
    containing = Itemset.empty;
    antecedent_includes = Itemset.empty;
    consequent_includes = Itemset.empty;
    allow_empty_antecedent = false;
    minsup = None;
    minconf = None;
    k = None;
    delta = [];
    delta_num_items = 0;
    cache = Record.Passthrough;
    digest = Olar_replay.Fnv.empty;
    result_size = 0;
    latency_s = 0.0;
    vertices = 0;
    heap_pops = 0;
    epoch = 0;
  }

(* The key as the server sees it: encoded and parsed back, so float
   thresholds are the wire's, bit for bit. *)
let on_wire r =
  let body = Record.key_to_json_line r in
  match Record.key_of_json_line body with
  | Ok k -> (k, body)
  | Error e -> failwith ("workload key does not round-trip: " ^ e)

(* Lattice regions the streams draw from. *)
type regions = {
  threshold : float;  (** primary support as a fraction *)
  singles : Itemset.t array;  (** primary singletons, strongest first *)
  pairs : Itemset.t array;  (** primary pairs, strongest first *)
  deep : Itemset.t array;  (** primary itemsets of 3+ items *)
}

let regions lat =
  let by_strength = Array.init (Lattice.num_vertices lat) Fun.id in
  Array.sort (Lattice.compare_strength lat) by_strength;
  let of_card c =
    Array.of_list
      (List.filter_map
         (fun v ->
           let x = Lattice.itemset lat v in
           if c (Itemset.cardinal x) then Some x else None)
         (Array.to_list by_strength))
  in
  let r =
    {
      threshold =
        float_of_int (Lattice.threshold lat) /. float_of_int (Lattice.db_size lat);
      singles = of_card (( = ) 1);
      pairs = of_card (( = ) 2);
      deep = of_card (fun c -> c >= 3);
    }
  in
  if Array.length r.singles < 40 || Array.length r.pairs < 20 || r.deep = [||] then
    failwith "lattice too small for the workload";
  r

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Zipf rank over [n] settings, weight 1/(r+1). *)
let zipf rng n =
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. float_of_int (r + 1))
  done;
  let u = Random.State.float rng !total in
  let rec go r acc =
    let acc = acc +. (1.0 /. float_of_int (r + 1)) in
    if r = n - 1 || u <= acc then r else go (r + 1) acc
  in
  go 0 0.0

(* The deepest primary itemset containing [f] (the boundary walk's
   target for an analyst focused on [f]). *)
let deepest_containing reg f =
  let best = ref None in
  Array.iter
    (fun x ->
      if Itemset.subset f x then
        match !best with
        | Some b when Itemset.cardinal b >= Itemset.cardinal x -> ()
        | _ -> best := Some x)
    reg.deep;
  match !best with Some x -> x | None -> reg.deep.(0)

(* One analyst session: pick a focus itemset and drill down over four
   settings of one query. Nine in ten sessions focus on a favourite
   (Zipf over the strongest singletons and pairs), so their answers
   repeat; one in ten explores another primary singleton or pair, so
   misses keep arriving at a steady rate. Sessions cycle through the
   eight read kinds of the replay_smoke mix, so the mix does not depend
   on the seed. Only counts and top-k support levels run on the empty
   focus: listing every itemset or rule of the lattice is a report, not
   an interactive question (a ~1 MB reply at this scale). *)
let analyst_stream ~explore rng reg ~len =
  let favourites =
    Array.concat
      [ [| Itemset.empty |]; Array.sub reg.singles 0 24; Array.sub reg.pairs 0 12 ]
  in
  let others =
    Array.append
      (Array.sub reg.singles 24 (Array.length reg.singles - 24))
      (Array.sub reg.pairs 12 (Array.length reg.pairs - 12))
  in
  let p = reg.threshold in
  let out = ref [] and n = ref 0 in
  let emit r =
    out := r :: !out;
    incr n
  in
  let targets = Hashtbl.create 64 in
  let target_of f =
    match Hashtbl.find_opt targets f with
    | Some x -> x
    | None ->
      let x = deepest_containing reg f in
      Hashtbl.add targets f x;
      x
  in
  let session = ref 0 in
  while !n < len do
    let f =
      if explore && Random.State.int rng 10 = 0 then pick rng others
      else favourites.(zipf rng (Array.length favourites))
    in
    let nonempty = if Itemset.is_empty f then reg.singles.(0) else f in
    let conf = [| 0.8; 0.6; 0.4 |].(!session / 8 mod 3) in
    let drill levels make = List.iter (fun l -> emit (make l)) levels in
    let sup l = Some (p *. l) in
    (match !session mod 8 with
    | 0 ->
      drill [ 4.0; 2.5; 1.5; 1.0 ] (fun l ->
          { (blank Record.Find_itemsets) with containing = nonempty; minsup = sup l })
    | 1 ->
      drill [ 4.0; 2.5; 1.5; 1.0 ] (fun l ->
          { (blank Record.Count_itemsets) with containing = f; minsup = sup l })
    | 2 ->
      drill [ 6.0; 4.0; 3.0; 2.0 ] (fun l ->
          {
            (blank Record.Essential_rules) with
            containing = nonempty;
            minsup = sup l;
            minconf = Some conf;
          })
    | 3 ->
      drill [ 8.0; 6.0; 4.0; 3.0 ] (fun l ->
          {
            (blank Record.All_rules) with
            containing = nonempty;
            minsup = sup l;
            minconf = Some conf;
          })
    | 4 ->
      drill [ 6.0; 4.0; 3.0; 2.0 ] (fun l ->
          {
            (blank Record.Single_consequent_rules) with
            containing = nonempty;
            minsup = sup l;
            minconf = Some conf;
          })
    | 5 ->
      drill [ 5.0; 10.0; 20.0; 50.0 ] (fun k ->
          {
            (blank Record.Support_for_k_itemsets) with
            containing = f;
            k = Some (int_of_float k);
          })
    | 6 ->
      drill [ 5.0; 10.0; 20.0; 40.0 ] (fun k ->
          {
            (blank Record.Support_for_k_rules) with
            containing = nonempty;
            minconf = Some conf;
            k = Some (int_of_float k);
          })
    | _ ->
      let target = target_of nonempty in
      drill [ 0.9; 0.7; 0.5; 0.3 ] (fun c ->
          { (blank Record.Boundary) with containing = target; minconf = Some c }));
    incr session
  done;
  Array.of_list (List.rev !out)

(* [within lat xs lo hi] keeps the itemsets with [lo..hi] primary
   supersets: the size of every answer that starts from them. *)
let within lat xs lo hi =
  let threshold = Lattice.threshold lat in
  Array.of_list
    (List.filter
       (fun x ->
         let n = Olar_core.Query.count_itemsets lat ~containing:x ~minsup:threshold in
         n >= lo && n <= hi)
       (Array.to_list xs))

(* Broad, rarely repeating queries: start itemsets drawn uniformly from
   the primary singletons and pairs whose answers are bounded (a few
   dozen to a few hundred primary supersets; the most popular items
   answer with whole-lattice reports of megabytes), boundary targets
   from primary itemsets of 3 to 5 items, thresholds from a fine grid
   just above the primary threshold. The session cache seldom holds an
   answer. *)
let scan_stream lat rng reg ~len =
  let p = reg.threshold in
  let singles = within lat reg.singles 20 300 in
  let pairs = within lat reg.pairs 10 60 in
  let targets =
    Array.of_list
      (List.filter (fun x -> Itemset.cardinal x <= 5) (Array.to_list reg.deep))
  in
  if Array.length singles < 50 || Array.length pairs < 50 || Array.length targets < 50 then
    failwith "lattice too small for the scan workload";
  let grid lo hi = lo +. ((hi -. lo) *. float_of_int (Random.State.int rng 256) /. 256.0) in
  Array.init len (fun _ ->
      match Random.State.int rng 4 with
      | 0 ->
        {
          (blank Record.Find_itemsets) with
          containing = pick rng singles;
          minsup = Some (p *. grid 1.0 1.5);
        }
      | 1 ->
        {
          (blank Record.Essential_rules) with
          containing = pick rng singles;
          minsup = Some (p *. grid 1.0 2.0);
          minconf = Some (grid 0.5 0.9);
        }
      | 2 ->
        {
          (blank Record.All_rules) with
          containing = pick rng pairs;
          minsup = Some (p *. grid 1.0 2.0);
          minconf = Some (grid 0.5 0.9);
        }
      | _ -> { (blank Record.Boundary) with containing = pick rng targets; minconf = Some (grid 0.2 0.9) })

(* A small delta of new transactions over the same items: each row is a
   primary pair or deeper itemset plus two frequent singletons. *)
let delta rng reg =
  let rows =
    List.init 20 (fun _ ->
        let base = if Random.State.bool rng then pick rng reg.pairs else pick rng reg.deep in
        Itemset.to_list
          (Itemset.union base (Itemset.union (pick rng reg.singles) (pick rng reg.singles))))
  in
  { (blank Record.Append) with delta = rows; delta_num_items = universe }

let build spec ~seed ~num_appends lat =
  let reg = regions lat in
  let ids = Hashtbl.create 4096 in
  let keys = ref [] and bodies = ref [] and n = ref 0 in
  let intern r =
    match Hashtbl.find_opt ids (Record.key_to_json_line r) with
    | Some id -> id
    | None ->
      let key, body = on_wire r in
      let id = !n in
      Hashtbl.add ids body id;
      keys := key :: !keys;
      bodies := body :: !bodies;
      incr n;
      id
  in
  let streams =
    Array.init spec.connections (fun c ->
        let rng = Random.State.make [| seed; c; 0x0a1a |] in
        let gen =
          if spec.name = "scan" then scan_stream lat else analyst_stream ~explore:spec.explore
        in
        Array.map intern (gen rng reg ~len:spec.stream_len))
  in
  let rng = Random.State.make [| seed; 0xde17a |] in
  let appends = Array.init num_appends (fun _ -> fst (on_wire (delta rng reg))) in
  {
    spec;
    keys = Array.of_list (List.rev !keys);
    bodies = Array.of_list (List.rev !bodies);
    streams;
    appends;
    append_bodies = Array.map Record.key_to_json_line appends;
  }

(* The ladder's stream: the connections' streams interleaved, as the
   server's single pool sees them. *)
let interleaved t ~len =
  Array.init len (fun i ->
      let c = Array.length t.streams in
      let s = t.streams.(i mod c) in
      s.(i / c mod Array.length s))
