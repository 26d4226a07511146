(* Raw per-request samples and exact order statistics over them.

   Every percentile the benchmark reports is read off the sorted raw
   samples (nearest rank), never off a bucketed histogram: a log-bucket
   histogram with five buckets per decade cannot tell two latencies 10%
   apart. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 4096 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let count t = t.len
let get t i = t.data.(i)
let clear t = t.len <- 0

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array; [q] in (0, 1]. *)
let rank sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let percentile t q = rank (sorted t) q

let mean t =
  if t.len = 0 then Float.nan
  else begin
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s /. float_of_int t.len
  end

(* Median of a small list of repeated measurements. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
