(* Tests for olar.util: Vec, Heap, Bitset, Rng, Dist, Timer, Atomic_file. *)

module Vec = Olar_util.Vec
module Heap = Olar_util.Heap
module Bitset = Olar_util.Bitset
module Rng = Olar_util.Rng
module Dist = Olar_util.Dist
module Counter = Olar_util.Timer.Counter

let check = Alcotest.check
let intl = Alcotest.(list int)

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_empty () =
  let v = Vec.create () in
  check Alcotest.int "length" 0 (Vec.length v);
  check Alcotest.bool "is_empty" true (Vec.is_empty v);
  check intl "to_list" [] (Vec.to_list v)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (i * i)
  done;
  check Alcotest.int "length" 100 (Vec.length v);
  check Alcotest.int "get 0" 0 (Vec.get v 0);
  check Alcotest.int "get 99" 9801 (Vec.get v 99);
  Vec.set v 50 (-1);
  check Alcotest.int "set" (-1) (Vec.get v 50)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get -1" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v (-1)));
  Alcotest.check_raises "get len" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "set len" (Invalid_argument "Vec.set") (fun () ->
      Vec.set v 3 0);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop") (fun () ->
      ignore (Vec.pop (Vec.create ())))

let test_vec_pop_last () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  check Alcotest.int "last" 3 (Vec.last v);
  check Alcotest.int "pop" 3 (Vec.pop v);
  check Alcotest.int "pop" 2 (Vec.pop v);
  check Alcotest.int "length" 1 (Vec.length v);
  Vec.push v 9;
  check intl "after push" [ 1; 9 ] (Vec.to_list v)

let test_vec_clear_reuse () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Vec.clear v;
  check Alcotest.int "cleared" 0 (Vec.length v);
  Vec.push v 7;
  check intl "reused" [ 7 ] (Vec.to_list v)

let test_vec_iterators () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  check intl "map" [ 2; 4; 6; 8 ] (Vec.to_list (Vec.map (fun x -> 2 * x) v));
  check Alcotest.int "fold" 10 (Vec.fold_left ( + ) 0 v);
  check Alcotest.bool "exists" true (Vec.exists (fun x -> x = 3) v);
  check Alcotest.bool "exists-not" false (Vec.exists (fun x -> x = 9) v);
  check Alcotest.bool "for_all" true (Vec.for_all (fun x -> x > 0) v);
  check Alcotest.bool "for_all-not" false (Vec.for_all (fun x -> x > 1) v);
  check intl "filter" [ 2; 4 ] (Vec.to_list (Vec.filter (fun x -> x mod 2 = 0) v));
  check (Alcotest.option Alcotest.int) "find_opt" (Some 2)
    (Vec.find_opt (fun x -> x mod 2 = 0) v);
  let seen = ref [] in
  Vec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  check
    Alcotest.(list (pair int int))
    "iteri" [ (0, 1); (1, 2); (2, 3); (3, 4) ] (List.rev !seen)

let test_vec_sort () =
  let v = Vec.of_list [ 5; 1; 4; 2; 3 ] in
  Vec.sort Int.compare v;
  check intl "sorted" [ 1; 2; 3; 4; 5 ] (Vec.to_list v)

let test_vec_append () =
  let a = Vec.of_list [ 1; 2 ] and b = Vec.of_list [ 3; 4 ] in
  Vec.append a b;
  check intl "append" [ 1; 2; 3; 4 ] (Vec.to_list a);
  check intl "src untouched" [ 3; 4 ] (Vec.to_list b)

let test_vec_init_make () =
  check intl "init" [ 0; 1; 4 ] (Vec.to_list (Vec.init 3 (fun i -> i * i)));
  check intl "make" [ 7; 7 ] (Vec.to_list (Vec.make 2 7));
  check intl "make 0" [] (Vec.to_list (Vec.make 0 7))

let test_vec_float_elements () =
  (* regression: float elements must not trip the flat-float-array
     representation (growth blits between arrays of mixed layout) *)
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v (float_of_int i /. 4.0)
  done;
  check (Alcotest.float 0.0) "get" 12.5 (Vec.get v 50);
  Vec.sort (fun a b -> Float.compare b a) v;
  check (Alcotest.float 0.0) "sorted desc" 24.75 (Vec.get v 0);
  let a = Vec.to_array v in
  check (Alcotest.float 0.0) "to_array" 24.75 a.(0);
  let m = Vec.make 3 1.5 in
  Vec.push m 2.5;
  check (Alcotest.float 0.0) "make+push" 2.5 (Vec.pop m);
  let i = Vec.init 4 (fun k -> float_of_int k *. 0.5) in
  check (Alcotest.float 0.0) "init" 1.5 (Vec.last i);
  let heap = Heap.of_list Float.compare [ 2.5; 0.5; 1.5 ] in
  check (Alcotest.list (Alcotest.float 0.0)) "heap of floats" [ 0.5; 1.5; 2.5 ]
    (Heap.to_sorted_list heap)

let vec_roundtrip_prop =
  QCheck2.Test.make ~name:"vec: of_list/to_list roundtrip" ~count:200
    QCheck2.(Gen.list Gen.small_int)
    (fun l -> Vec.to_list (Vec.of_list l) = l)

let vec_push_pop_prop =
  QCheck2.Test.make ~name:"vec: pushes then pops reverse" ~count:200
    QCheck2.(Gen.list Gen.small_int)
    (fun l ->
      let v = Vec.create () in
      List.iter (Vec.push v) l;
      let popped = List.init (List.length l) (fun _ -> Vec.pop v) in
      popped = List.rev l && Vec.is_empty v)

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_basic () =
  let h = Heap.create Int.compare in
  check Alcotest.bool "empty" true (Heap.is_empty h);
  check (Alcotest.option Alcotest.int) "peek empty" None (Heap.peek h);
  check (Alcotest.option Alcotest.int) "pop empty" None (Heap.pop h);
  List.iter (Heap.push h) [ 5; 3; 8; 1; 9; 2 ];
  check Alcotest.int "length" 6 (Heap.length h);
  check (Alcotest.option Alcotest.int) "peek" (Some 1) (Heap.peek h);
  check intl "drain ascending" [ 1; 2; 3; 5; 8; 9 ] (Heap.to_sorted_list h);
  check Alcotest.bool "drained" true (Heap.is_empty h)

let test_heap_max_order () =
  let h = Heap.of_list (fun a b -> Int.compare b a) [ 4; 7; 1 ] in
  check intl "descending" [ 7; 4; 1 ] (Heap.to_sorted_list h)

let test_heap_duplicates () =
  let h = Heap.of_list Int.compare [ 2; 2; 1; 2 ] in
  check intl "dups kept" [ 1; 2; 2; 2 ] (Heap.to_sorted_list h)

let test_heap_pop_exn () =
  let h = Heap.create Int.compare in
  Alcotest.check_raises "empty" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Heap.pop_exn h));
  Heap.push h 3;
  check Alcotest.int "pop_exn" 3 (Heap.pop_exn h)

let test_heap_clear () =
  let h = Heap.of_list Int.compare [ 1; 2 ] in
  Heap.clear h;
  check Alcotest.bool "cleared" true (Heap.is_empty h)

let heap_sort_prop =
  QCheck2.Test.make ~name:"heap: drain equals List.sort" ~count:300
    QCheck2.(Gen.list Gen.small_int)
    (fun l ->
      Heap.to_sorted_list (Heap.of_list Int.compare l) = List.sort Int.compare l)

let heap_interleaved_prop =
  QCheck2.Test.make ~name:"heap: peek is minimum under interleaving" ~count:200
    QCheck2.(Gen.list (Gen.pair Gen.bool Gen.small_int))
    (fun ops ->
      let h = Heap.create Int.compare in
      let model = ref [] in
      List.for_all
        (fun (is_push, x) ->
          if is_push then begin
            Heap.push h x;
            model := x :: !model;
            true
          end
          else
            match (Heap.pop h, !model) with
            | None, [] -> true
            | Some y, (hd :: _ as l) ->
              let m = List.fold_left min hd l in
              let dup_count = List.length (List.filter (fun z -> z = m) l) in
              model :=
                List.filter (fun z -> z <> m) l
                @ List.init (dup_count - 1) (fun _ -> m);
              y = m
            | Some _, [] | None, _ :: _ -> false)
        ops)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  check Alcotest.int "capacity" 100 (Bitset.capacity s);
  check Alcotest.int "cardinal" 0 (Bitset.cardinal s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  check Alcotest.bool "mem 0" true (Bitset.mem s 0);
  check Alcotest.bool "mem 63" true (Bitset.mem s 63);
  check Alcotest.bool "mem 64" true (Bitset.mem s 64);
  check Alcotest.bool "mem 1" false (Bitset.mem s 1);
  check Alcotest.int "cardinal" 4 (Bitset.cardinal s);
  check intl "to_list" [ 0; 63; 64; 99 ] (Bitset.to_list s);
  Bitset.remove s 63;
  check Alcotest.bool "removed" false (Bitset.mem s 63);
  check Alcotest.int "cardinal after remove" 3 (Bitset.cardinal s)

let test_bitset_idempotent () =
  let s = Bitset.create 10 in
  Bitset.add s 5;
  Bitset.add s 5;
  check Alcotest.int "double add" 1 (Bitset.cardinal s);
  Bitset.remove s 5;
  Bitset.remove s 5;
  check Alcotest.int "double remove" 0 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 8 in
  Alcotest.check_raises "add oob" (Invalid_argument "Bitset.add") (fun () ->
      Bitset.add s 8);
  Alcotest.check_raises "mem oob" (Invalid_argument "Bitset.mem") (fun () ->
      ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "create neg" (Invalid_argument "Bitset.create")
    (fun () -> ignore (Bitset.create (-1)))

let test_bitset_clear_copy () =
  let s = Bitset.create 20 in
  Bitset.add s 3;
  Bitset.add s 17;
  let c = Bitset.copy s in
  Bitset.clear s;
  check Alcotest.int "cleared" 0 (Bitset.cardinal s);
  check intl "copy unaffected" [ 3; 17 ] (Bitset.to_list c)

let test_bitset_zero_capacity () =
  let s = Bitset.create 0 in
  check Alcotest.int "cardinal" 0 (Bitset.cardinal s);
  check intl "to_list" [] (Bitset.to_list s)

let bitset_model_prop =
  QCheck2.Test.make ~name:"bitset: agrees with a list model" ~count:200
    QCheck2.(Gen.list (Gen.pair Gen.bool (Gen.int_range 0 63)))
    (fun ops ->
      let s = Bitset.create 64 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (add, i) ->
          if add then begin
            Bitset.add s i;
            Hashtbl.replace model i ()
          end
          else begin
            Bitset.remove s i;
            Hashtbl.remove model i
          end)
        ops;
      let expected = List.sort Int.compare (Hashtbl.fold (fun i () l -> i :: l) model []) in
      Bitset.to_list s = expected && Bitset.cardinal s = List.length expected)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.of_int 7 and b = Rng.of_int 7 in
  let xs = List.init 20 (fun _ -> Rng.bits a) in
  let ys = List.init 20 (fun _ -> Rng.bits b) in
  check intl "same seed same stream" xs ys

let test_rng_seed_sensitivity () =
  let a = Rng.of_int 7 and b = Rng.of_int 8 in
  let xs = List.init 20 (fun _ -> Rng.bits a) in
  let ys = List.init 20 (fun _ -> Rng.bits b) in
  check Alcotest.bool "different seeds differ" true (xs <> ys)

let test_rng_copy_split () =
  let a = Rng.of_int 1 in
  let b = Rng.copy a in
  check Alcotest.int "copy aligned" (Rng.bits a) (Rng.bits b);
  let c = Rng.split a in
  check Alcotest.bool "split diverges" true (Rng.bits a <> Rng.bits c)

let test_rng_int_range () =
  let rng = Rng.of_int 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    if x < 0 || x >= 17 then Alcotest.fail "out of range"
  done;
  Alcotest.check_raises "n=0" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.of_int 4 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.fail "out of range"
  done

let test_rng_int_covers () =
  (* Every residue of a small modulus appears over a long run. *)
  let rng = Rng.of_int 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Rng.int rng 5) <- true
  done;
  check Alcotest.bool "all residues hit" true (Array.for_all Fun.id seen)

(* ------------------------------------------------------------------ *)
(* Dist *)

let mean_of l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let test_dist_poisson_mean () =
  let rng = Rng.of_int 11 in
  let n = 20_000 in
  let m = mean_of (List.init n (fun _ -> float_of_int (Dist.poisson rng 4.0))) in
  if abs_float (m -. 4.0) > 0.1 then
    Alcotest.failf "poisson mean %f too far from 4" m

let test_dist_poisson_large_mean () =
  let rng = Rng.of_int 12 in
  let n = 5_000 in
  let m = mean_of (List.init n (fun _ -> float_of_int (Dist.poisson rng 50.0))) in
  if abs_float (m -. 50.0) > 1.0 then
    Alcotest.failf "poisson(50) mean %f too far" m

let test_dist_exponential_mean () =
  let rng = Rng.of_int 13 in
  let n = 20_000 in
  let m = mean_of (List.init n (fun _ -> Dist.exponential rng 2.0)) in
  if abs_float (m -. 2.0) > 0.1 then Alcotest.failf "exp mean %f too far from 2" m

let test_dist_geometric () =
  let rng = Rng.of_int 14 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Dist.geometric rng 0.5) in
  List.iter (fun g -> if g < 0 then Alcotest.fail "negative geometric") samples;
  (* mean of failures-before-success = (1-p)/p = 1 *)
  let m = mean_of (List.map float_of_int samples) in
  if abs_float (m -. 1.0) > 0.1 then Alcotest.failf "geom mean %f too far from 1" m;
  check Alcotest.int "p=1 is always 0" 0 (Dist.geometric rng 1.0)

let test_dist_normal_moments () =
  let rng = Rng.of_int 15 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Dist.normal rng ~mean:3.0 ~stddev:2.0) in
  let m = mean_of samples in
  let var = mean_of (List.map (fun x -> (x -. m) ** 2.0) samples) in
  if abs_float (m -. 3.0) > 0.1 then Alcotest.failf "normal mean %f" m;
  if abs_float (var -. 4.0) > 0.3 then Alcotest.failf "normal var %f" var

let test_dist_normal_clamped () =
  let rng = Rng.of_int 16 in
  for _ = 1 to 2000 do
    let x = Dist.normal_clamped rng ~mean:0.5 ~stddev:0.7 ~lo:0.0 ~hi:1.0 in
    if x <= 0.0 || x >= 1.0 then Alcotest.fail "clamp violated"
  done

let test_dist_validation () =
  let rng = Rng.of_int 17 in
  Alcotest.check_raises "poisson" (Invalid_argument "Dist.poisson") (fun () ->
      ignore (Dist.poisson rng 0.0));
  Alcotest.check_raises "exponential" (Invalid_argument "Dist.exponential")
    (fun () -> ignore (Dist.exponential rng (-1.0)));
  Alcotest.check_raises "geometric" (Invalid_argument "Dist.geometric")
    (fun () -> ignore (Dist.geometric rng 0.0));
  Alcotest.check_raises "normal" (Invalid_argument "Dist.normal") (fun () ->
      ignore (Dist.normal rng ~mean:0.0 ~stddev:(-1.0)))

let test_dist_weighted_index () =
  let rng = Rng.of_int 18 in
  (* Index 1 has 90% of the mass. *)
  let w = [| 1.0; 18.0; 1.0 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Dist.weighted_index rng w in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.bool "heavy index dominates" true (counts.(1) > 8_000);
  check Alcotest.bool "light indices appear" true (counts.(0) > 100 && counts.(2) > 100);
  Alcotest.check_raises "empty" (Invalid_argument "Dist.weighted_index: empty")
    (fun () -> ignore (Dist.weighted_index rng [||]));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Dist.weighted_index: zero total") (fun () ->
      ignore (Dist.weighted_index rng [| 0.0; 0.0 |]))

let test_dist_cdf_matches_weighted () =
  let rng = Rng.of_int 19 in
  let w = [| 5.0; 0.0; 3.0; 2.0 |] in
  let cdf = Dist.Cdf.of_weights w in
  check Alcotest.int "length" 4 (Dist.Cdf.length cdf);
  let counts = Array.make 4 0 in
  for _ = 1 to 20_000 do
    let i = Dist.Cdf.sample cdf rng in
    counts.(i) <- counts.(i) + 1
  done;
  check Alcotest.int "zero-weight index never drawn" 0 counts.(1);
  let frac i = float_of_int counts.(i) /. 20_000.0 in
  if abs_float (frac 0 -. 0.5) > 0.02 then Alcotest.fail "cdf index 0 frequency";
  if abs_float (frac 2 -. 0.3) > 0.02 then Alcotest.fail "cdf index 2 frequency";
  if abs_float (frac 3 -. 0.2) > 0.02 then Alcotest.fail "cdf index 3 frequency"

(* ------------------------------------------------------------------ *)
(* Timer.Counter *)

let test_counter () =
  let c = Counter.create "work" in
  check Alcotest.string "name" "work" (Counter.name c);
  check Alcotest.int "zero" 0 (Counter.value c);
  Counter.incr c;
  Counter.add c 5;
  check Alcotest.int "incr+add" 6 (Counter.value c);
  Alcotest.check_raises "negative add" (Invalid_argument "Timer.Counter.add")
    (fun () -> Counter.add c (-1));
  Counter.reset c;
  check Alcotest.int "reset" 0 (Counter.value c);
  (* the ?work threading helper: None is a no-op, Some increments *)
  Counter.bump None;
  Counter.bump (Some c);
  Counter.bump (Some c);
  check Alcotest.int "bump" 2 (Counter.value c)

(* [monotonic_s] is a high-water mark over the wall clock: consecutive
   reads never decrease, even from several domains racing the CAS loop
   (a wall-clock regression in one domain must not surface as time
   going backwards in another). *)
let test_timer_monotonic () =
  let worker () =
    let last = ref (Olar_util.Timer.monotonic_s ()) in
    for _ = 1 to 10_000 do
      let t = Olar_util.Timer.monotonic_s () in
      if t < !last then
        Alcotest.failf "monotonic_s went backwards: %.17g -> %.17g" !last t;
      last := t
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join domains

let test_timer_elapsed () =
  let t = Olar_util.Timer.start () in
  let x = ref 0 in
  for i = 1 to 100_000 do
    x := !x + i
  done;
  check Alcotest.bool "monotone" true (Olar_util.Timer.elapsed_s t >= 0.0);
  let y, dt = Olar_util.Timer.time (fun () -> 42) in
  check Alcotest.int "time result" 42 y;
  check Alcotest.bool "time nonneg" true (dt >= 0.0)

(* ------------------------------------------------------------------ *)
(* Atomic_file *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let with_temp_dir f =
  let dir = Filename.temp_file "olar_atomic" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_atomic_file_replaces () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "target" in
      Olar_util.Atomic_file.write path (fun oc -> output_string oc "first\n");
      check Alcotest.string "created" "first\n" (read_file path);
      Olar_util.Atomic_file.write path (fun oc -> output_string oc "second\n");
      check Alcotest.string "replaced" "second\n" (read_file path);
      check Alcotest.(list string) "no temp file left" [ "target" ]
        (Array.to_list (Sys.readdir dir));
      (* a bare relative name lives in the current directory, which is
         the directory fsynced after the rename *)
      let cwd = Sys.getcwd () in
      Fun.protect
        ~finally:(fun () -> Sys.chdir cwd)
        (fun () ->
          Sys.chdir dir;
          Olar_util.Atomic_file.write "target" (fun oc -> output_string oc "bare\n"));
      check Alcotest.string "bare name replaced" "bare\n" (read_file path);
      check Alcotest.(list string) "still no temp file" [ "target" ]
        (Array.to_list (Sys.readdir dir)))

(* A writer that dies halfway — after writing part of the new content —
   must leave the old file byte-identical and no temp file behind. *)
let test_atomic_file_raising_writer () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "target" in
      let original = "# olar adjacency lattice v2\nvertices 3\n" in
      Out_channel.with_open_bin path (fun oc -> output_string oc original);
      (match
         Olar_util.Atomic_file.write path (fun oc ->
             output_string oc "# olar adjacency lattice v2\nvert";
             failwith "disk on fire")
       with
      | () -> Alcotest.fail "the writer's exception was swallowed"
      | exception Failure msg -> check Alcotest.string "propagates" "disk on fire" msg);
      check Alcotest.string "old file byte-identical" original (read_file path);
      check Alcotest.(list string) "no temp file left" [ "target" ]
        (Array.to_list (Sys.readdir dir)))

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "util.vec",
      [
        case "empty" test_vec_empty;
        case "push/get/set" test_vec_push_get;
        case "bounds" test_vec_bounds;
        case "pop/last" test_vec_pop_last;
        case "clear/reuse" test_vec_clear_reuse;
        case "iterators" test_vec_iterators;
        case "sort" test_vec_sort;
        case "append" test_vec_append;
        case "init/make" test_vec_init_make;
        case "float elements" test_vec_float_elements;
        QCheck_alcotest.to_alcotest vec_roundtrip_prop;
        QCheck_alcotest.to_alcotest vec_push_pop_prop;
      ] );
    ( "util.heap",
      [
        case "basic" test_heap_basic;
        case "max order" test_heap_max_order;
        case "duplicates" test_heap_duplicates;
        case "pop_exn" test_heap_pop_exn;
        case "clear" test_heap_clear;
        QCheck_alcotest.to_alcotest heap_sort_prop;
        QCheck_alcotest.to_alcotest heap_interleaved_prop;
      ] );
    ( "util.bitset",
      [
        case "basic" test_bitset_basic;
        case "idempotent" test_bitset_idempotent;
        case "bounds" test_bitset_bounds;
        case "clear/copy" test_bitset_clear_copy;
        case "zero capacity" test_bitset_zero_capacity;
        QCheck_alcotest.to_alcotest bitset_model_prop;
      ] );
    ( "util.rng",
      [
        case "deterministic" test_rng_deterministic;
        case "seed sensitivity" test_rng_seed_sensitivity;
        case "copy/split" test_rng_copy_split;
        case "int range" test_rng_int_range;
        case "float range" test_rng_float_range;
        case "int covers residues" test_rng_int_covers;
      ] );
    ( "util.dist",
      [
        case "poisson mean" test_dist_poisson_mean;
        case "poisson large mean" test_dist_poisson_large_mean;
        case "exponential mean" test_dist_exponential_mean;
        case "geometric" test_dist_geometric;
        case "normal moments" test_dist_normal_moments;
        case "normal clamped" test_dist_normal_clamped;
        case "validation" test_dist_validation;
        case "weighted index" test_dist_weighted_index;
        case "cdf sampling" test_dist_cdf_matches_weighted;
      ] );
    ( "util.timer",
      [
        case "counter" test_counter;
        case "elapsed" test_timer_elapsed;
        case "monotonic clock" test_timer_monotonic;
      ] );
    ( "util.atomic_file",
      [
        case "write and replace" test_atomic_file_replaces;
        case "raising writer keeps the old file" test_atomic_file_raising_writer;
      ] );
  ]
