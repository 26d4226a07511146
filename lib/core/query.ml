open Olar_data

exception Below_primary_threshold of { requested : int; primary : int }

let check_minsup lattice s =
  if s < 1 then invalid_arg "Query: minsup must be positive";
  let primary = Lattice.threshold lattice in
  if s < primary then raise (Below_primary_threshold { requested = s; primary })

let bump = Olar_util.Timer.Counter.bump

(* Core search (Figure 2), on the scratch [s] the caller holds. Calls
   [emit] on every reachable vertex with support >= minsup, the start
   vertex excluded, and leaves exactly those vertices and the start
   marked with [s]'s epoch. Child rows are scanned in decreasing-support
   order directly off the CSR buffers, so the scan of a row stops at the
   first child below the threshold and a steady-state query (shared
   scratch) allocates nothing. *)
let search ?work (s : Scratch.t) lattice ~start ~minsup ~emit =
  let child_off = Lattice.child_offsets lattice in
  let child_buf = Lattice.child_edges lattice in
  let supports = Lattice.support_array lattice in
  let marks = s.marks in
  let epoch = s.epoch in
  let stack = s.stack in
  marks.(start) <- epoch;
  Olar_util.Vec.push stack start;
  while not (Olar_util.Vec.is_empty stack) do
    let v = Olar_util.Vec.pop stack in
    bump work;
    let i = ref child_off.(v) in
    let stop = child_off.(v + 1) in
    let continue_scan = ref true in
    while !continue_scan && !i < stop do
      let child = child_buf.(!i) in
      bump work;
      if supports.(child) >= minsup then begin
        if marks.(child) <> epoch then begin
          marks.(child) <- epoch;
          emit child;
          Olar_util.Vec.push stack child
        end;
        incr i
      end
      else continue_scan := false (* all later children are weaker *)
    done
  done

(* The start is part of the answer when asked for, not the root, and
   strong enough. *)
let start_qualifies ~include_start lattice ~containing ~minsup start =
  include_start
  && (not (Itemset.is_empty containing))
  && Lattice.support lattice start >= minsup

(* A comparison sort of n ids makes O(n·log2 n) closure calls to
   [compare_strength]; the counting pass sweeps the marks of every
   vertex twice. Timed on T10.I4.D10K at 0.2% (21,747 vertices), the
   two cost the same between n = 354 and n = 395 ids (about 140 us),
   where n·log2 n is about a seventh of the lattice size; a whole find
   of 21,746 ids takes 15 ms with the sort and 2.3 ms without. So
   the counting pass takes over once 8·n·floor(log2 n) reaches the
   lattice size. [crossover] is the smallest such n: within the octave
   [2^b, 2^(b+1)) the condition reads n >= nv / (8·b). It is at least
   2. *)
let crossover lattice =
  let nv = Lattice.num_vertices lattice in
  let rec octave b =
    let lo = 1 lsl b in
    let n = max lo ((nv + (8 * b) - 1) / (8 * b)) in
    if n < 2 * lo then n else octave (b + 1)
  in
  octave 1

(* [count_sort s lattice ~lo ~hi] is the vertices [s] marks, with
   supports in [lo, hi], in canonical order: a sweep of the marks in
   ascending id order feeds one stable counting pass keyed on support
   descending, so equal supports keep ascending ids. *)
let count_sort (s : Scratch.t) lattice ~lo ~hi =
  let supports = Lattice.support_array lattice in
  let marks = s.marks and epoch = s.epoch in
  (* next.(hi - x) is where the next id of support x goes *)
  let next = Array.make (hi - lo + 2) 0 in
  for v = 0 to Array.length marks - 1 do
    if marks.(v) = epoch then begin
      let k = hi - supports.(v) + 1 in
      next.(k) <- next.(k) + 1
    end
  done;
  for k = 1 to hi - lo + 1 do
    next.(k) <- next.(k) + next.(k - 1)
  done;
  let out = Array.make next.(hi - lo + 1) 0 in
  for v = 0 to Array.length marks - 1 do
    if marks.(v) = epoch then begin
      let k = hi - supports.(v) in
      out.(next.(k)) <- v;
      next.(k) <- next.(k) + 1
    end
  done;
  out

(* The walk keeps the ids only while the answer is below the crossover;
   a larger answer is read back from the marks. *)
let find_itemsets ?work ?scratch ?(include_start = true) lattice ~containing
    ~minsup =
  check_minsup lattice minsup;
  match Lattice.find lattice containing with
  | None -> [||]
  | Some start ->
    Scratch.use ?scratch lattice (fun s ->
        let crossover = crossover lattice in
        let ids = Olar_util.Vec.create () in
        let emit v =
          if Olar_util.Vec.length ids < crossover then Olar_util.Vec.push ids v
        in
        let with_start =
          start_qualifies ~include_start lattice ~containing ~minsup start
        in
        if with_start then emit start;
        search ?work s lattice ~start ~minsup ~emit;
        if Olar_util.Vec.length ids < crossover then begin
          let out = Olar_util.Vec.to_array ids in
          Array.sort (Lattice.compare_strength lattice) out;
          out
        end
        else begin
          (* Every other answer descends from a child of the start, and
             the first child in its row is the strongest, so it bounds
             the supports (the walk emitted at least one child). *)
          let hi =
            if with_start then Lattice.support lattice start
            else
              Lattice.support lattice
                (Lattice.child_edges lattice).((Lattice.child_offsets lattice).(start))
          in
          (* the walk is over: leave the start marked only if it answers *)
          if not with_start then s.marks.(start) <- 0;
          count_sort s lattice ~lo:minsup ~hi
        end)

let count_itemsets ?work ?scratch ?(include_start = true) lattice ~containing
    ~minsup =
  check_minsup lattice minsup;
  match Lattice.find lattice containing with
  | None -> 0
  | Some start ->
    let count = ref 0 in
    if start_qualifies ~include_start lattice ~containing ~minsup start then
      incr count;
    Scratch.use ?scratch lattice (fun s ->
        search ?work s lattice ~start ~minsup ~emit:(fun _ -> incr count));
    !count

let to_entries lattice ids =
  Array.fold_right
    (fun v acc -> (Lattice.itemset lattice v, Lattice.support lattice v) :: acc)
    ids []
