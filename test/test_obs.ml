(* Tests for the olar.obs telemetry subsystem: histogram buckets and
   quantiles, span nesting and emission order, JSON-lines golden output,
   Prometheus exposition escaping, and the Jsonx printer/parser. *)

open Olar_obs
module H = Metrics.Histogram

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_bounds () =
  let b = H.log_bounds () in
  check Alcotest.int "default bound count" 46 (Array.length b);
  check (Alcotest.float 1e-18) "first bound" 1e-6 b.(0);
  check (Alcotest.float 1e-3) "last bound" 1e3 b.(45);
  Array.iteri
    (fun i x -> if i > 0 && x <= b.(i - 1) then Alcotest.fail "not increasing")
    b;
  (match H.of_bounds "bad" [| 1.0; 1.0 |] with
  | _ -> Alcotest.fail "non-increasing bounds accepted"
  | exception Invalid_argument _ -> ());
  match H.of_bounds "bad" [||] with
  | _ -> Alcotest.fail "empty bounds accepted"
  | exception Invalid_argument _ -> ()

let test_histogram_observe () =
  let h = H.of_bounds "h" [| 1.0; 2.0; 4.0 |] in
  check Alcotest.bool "empty mean is nan" true (Float.is_nan (H.mean h));
  check Alcotest.bool "empty quantile is nan" true
    (Float.is_nan (H.quantile h 0.5));
  List.iter (H.observe h) [ 0.5; 1.5; 3.0; 100.0 ];
  check (Alcotest.array Alcotest.int) "bucket counts" [| 1; 1; 1; 1 |]
    (H.counts h);
  check Alcotest.int "count" 4 (H.count h);
  check (Alcotest.float 1e-9) "sum" 105.0 (H.sum h);
  check (Alcotest.float 1e-9) "mean" 26.25 (H.mean h);
  (* quantile is the upper bound of the bucket where the cumulative
     count reaches ceil(q * total) *)
  check (Alcotest.float 1e-9) "p25" 1.0 (H.quantile h 0.25);
  check (Alcotest.float 1e-9) "p50" 2.0 (H.quantile h 0.5);
  check (Alcotest.float 1e-9) "p75" 4.0 (H.quantile h 0.75);
  check Alcotest.bool "p100 overflows to +Inf" true
    (H.quantile h 1.0 = Float.infinity);
  (* boundary samples land in the bucket whose bound they equal *)
  let g = H.of_bounds "g" [| 1.0; 2.0 |] in
  H.observe g 1.0;
  H.observe g 2.0;
  check (Alcotest.array Alcotest.int) "le semantics" [| 1; 1; 0 |] (H.counts g);
  match H.quantile h 1.5 with
  | _ -> Alcotest.fail "quantile out of range accepted"
  | exception Invalid_argument _ -> ()

let histogram_quantile_prop =
  QCheck2.Test.make ~name:"obs: histogram quantile covers q of the samples"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 50) (float_range 1e-7 2e3))
        (float_range 0.0 1.0))
    (fun (samples, q) ->
      let h = H.create "p" in
      List.iter (H.observe h) samples;
      let cut = H.quantile h q in
      let n = List.length samples in
      let need = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))) in
      let covered = List.length (List.filter (fun s -> s <= cut) samples) in
      covered >= min need n
      (* and the estimate never decreases in q *)
      && H.quantile h (q /. 2.0) <= cut)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_interning () =
  let r = Metrics.create () in
  let c = Metrics.counter r ~help:"first" "c" in
  check Alcotest.bool "counter interned" true (c == Metrics.counter r "c");
  (match Metrics.gauge r "c" with
  | _ -> Alcotest.fail "kind mismatch accepted"
  | exception Invalid_argument _ -> ());
  let external_c = Metrics.Counter.create "olar_external_total" in
  Metrics.Counter.add external_c 7;
  Metrics.attach_counter r external_c;
  (match Metrics.find r "olar_external_total" with
  | Some { Metrics.metric = Metrics.M_counter c'; _ } ->
    check Alcotest.bool "attached counter is the same cell" true
      (c' == external_c)
  | _ -> Alcotest.fail "attached counter not found");
  let order = List.map (fun e -> e.Metrics.name) (Metrics.to_list r) in
  check (Alcotest.list Alcotest.string) "registration order"
    [ "c"; "olar_external_total" ] order

(* ------------------------------------------------------------------ *)
(* Trace spans *)

let test_span_nesting () =
  let sink, spans = Sink.memory () in
  let now = ref 0.0 in
  let t = Trace.create ~clock:(fun () -> !now) ~emit:(Sink.emit sink) () in
  Trace.with_span t "outer" (fun () ->
      now := 1.0;
      check Alcotest.int "depth inside outer" 1 (Trace.depth t);
      Trace.with_span t "inner"
        ~attrs:(fun () -> [ ("k", Trace.Int 7) ])
        (fun () -> now := 1.5);
      now := 1.75);
  check Alcotest.int "all closed" 0 (Trace.depth t);
  match spans () with
  | [ inner; outer ] ->
    (* children are emitted before parents; ids follow open order *)
    check Alcotest.string "inner first" "inner" inner.Trace.name;
    check Alcotest.string "outer second" "outer" outer.Trace.name;
    check Alcotest.int "outer id" 0 outer.Trace.id;
    check Alcotest.int "inner id" 1 inner.Trace.id;
    check (Alcotest.option Alcotest.int) "outer is a root" None
      outer.Trace.parent;
    check (Alcotest.option Alcotest.int) "inner parent" (Some 0)
      inner.Trace.parent;
    check Alcotest.int "inner depth" 1 inner.Trace.depth;
    check (Alcotest.float 1e-12) "inner start" 1.0 inner.Trace.start_s;
    check (Alcotest.float 1e-12) "inner duration" 0.5 inner.Trace.duration_s;
    check (Alcotest.float 1e-12) "outer duration" 1.75 outer.Trace.duration_s;
    (match inner.Trace.attrs with
    | [ ("k", Trace.Int 7) ] -> ()
    | _ -> Alcotest.fail "inner attrs")
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_span_emitted_on_raise () =
  let sink, spans = Sink.memory () in
  let t = Trace.create ~clock:(fun () -> 0.0) ~emit:(Sink.emit sink) () in
  (try Trace.with_span t "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "span emitted despite raise" 1 (List.length (spans ()));
  check Alcotest.int "stack unwound" 0 (Trace.depth t)

let test_exit_closed_span () =
  let t = Trace.create ~clock:(fun () -> 0.0) ~emit:(fun _ -> ()) () in
  let id = Trace.enter t "only" in
  Trace.exit t ~id [];
  match Trace.exit t ~id [] with
  | () -> Alcotest.fail "exit of a closed span accepted"
  | exception Invalid_argument _ -> ()

(* Exiting an outer span while descendants are still open must not
   corrupt the tree: the orphans are closed child-first, tagged
   [abandoned], before the target emits. This is what keeps one raising
   query from skewing the parentage of every later span. *)
let test_exit_unwinds_abandoned () =
  let sink, spans = Sink.memory () in
  let t = Trace.create ~clock:(fun () -> 0.0) ~emit:(Sink.emit sink) () in
  let outer = Trace.enter t "outer" in
  let _inner = Trace.enter t "inner" in
  let _leaf = Trace.enter t "leaf" in
  Trace.exit t ~id:outer [ ("k", Trace.Int 1) ];
  check Alcotest.int "stack fully unwound" 0 (Trace.depth t);
  match spans () with
  | [ leaf; inner; outer' ] ->
    check Alcotest.string "leaf first" "leaf" leaf.Trace.name;
    check Alcotest.string "inner second" "inner" inner.Trace.name;
    check Alcotest.string "outer last" "outer" outer'.Trace.name;
    check Alcotest.bool "leaf tagged abandoned" true
      (List.mem_assoc "abandoned" leaf.Trace.attrs);
    check Alcotest.bool "inner tagged abandoned" true
      (List.mem_assoc "abandoned" inner.Trace.attrs);
    check Alcotest.bool "target keeps its own attrs" true
      (List.mem_assoc "k" outer'.Trace.attrs)
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

(* A raising attribute thunk must not leave the frame open. *)
let test_attrs_raise_closes_span () =
  let sink, spans = Sink.memory () in
  let t = Trace.create ~clock:(fun () -> 0.0) ~emit:(Sink.emit sink) () in
  let result =
    Trace.with_span t "q"
      ~attrs:(fun () -> failwith "attrs boom")
      (fun () -> 42)
  in
  check Alcotest.int "body result still returned" 42 result;
  check Alcotest.int "stack unwound" 0 (Trace.depth t);
  match spans () with
  | [ s ] ->
    check Alcotest.bool "error recorded in attrs" true
      (List.mem_assoc "attrs_error" s.Trace.attrs)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* A raising body abandons the inner manual span; with_span's exit must
   still emit child-first and leave the tracer reusable. *)
let test_raise_with_open_child () =
  let sink, spans = Sink.memory () in
  let t = Trace.create ~clock:(fun () -> 0.0) ~emit:(Sink.emit sink) () in
  (try
     Trace.with_span t "outer" (fun () ->
         let _inner = Trace.enter t "inner" in
         failwith "boom")
   with Failure _ -> ());
  check Alcotest.int "stack unwound" 0 (Trace.depth t);
  (match spans () with
  | [ inner; outer ] ->
    check Alcotest.string "inner first" "inner" inner.Trace.name;
    check Alcotest.bool "inner abandoned" true
      (List.mem_assoc "abandoned" inner.Trace.attrs);
    check Alcotest.string "outer second" "outer" outer.Trace.name
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
  (* the tracer still works after the incident *)
  Trace.with_span t "next" (fun () -> ());
  check Alcotest.int "later spans unaffected" 3 (List.length (spans ()))

(* ------------------------------------------------------------------ *)
(* JSON-lines sink: golden output under a deterministic clock *)

let test_jsonl_golden () =
  let buf = Buffer.create 256 in
  let sink = Sink.jsonl_writer (Buffer.add_string buf) in
  let now = ref 0.0 in
  let t = Trace.create ~clock:(fun () -> !now) ~emit:(Sink.emit sink) () in
  Trace.with_span t "outer" (fun () ->
      now := 1.0;
      Trace.with_span t "inner"
        ~attrs:(fun () -> [ ("k", Trace.Int 7); ("s", Trace.Str "a\"b") ])
        (fun () -> now := 1.5);
      now := 1.75);
  let golden =
    "{\"id\":1,\"parent\":0,\"depth\":1,\"name\":\"inner\",\"start_s\":1,\
     \"duration_s\":0.5,\"attrs\":{\"k\":7,\"s\":\"a\\\"b\"}}\n\
     {\"id\":0,\"parent\":null,\"depth\":0,\"name\":\"outer\",\"start_s\":0,\
     \"duration_s\":1.75,\"attrs\":{}}\n"
  in
  check Alcotest.string "jsonl golden" golden (Buffer.contents buf);
  (* every line re-parses with the same Jsonx the checker uses *)
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun line ->
         match Jsonx.of_string line with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "line does not re-parse: %s" e)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

let test_prometheus_escaping () =
  check Alcotest.string "sanitize" "weird_name_9_"
    (Exposition.sanitize_name "weird-name 9!");
  check Alcotest.string "leading digit" "_xs" (Exposition.sanitize_name "9xs");
  check Alcotest.string "help escape" "a\\\\b\\nc"
    (Exposition.escape_help "a\\b\nc");
  check Alcotest.string "label escape" "a\\\"b\\nc\\\\"
    (Exposition.escape_label "a\"b\nc\\")

let test_prometheus_exposition () =
  let r = Metrics.create () in
  let c = Metrics.counter r ~help:"hits\nand misses" "olar weird!total" in
  Metrics.Counter.add c 3;
  let g = Metrics.gauge r "olar_gauge" in
  Metrics.Gauge.set g 2.5;
  let h = Metrics.histogram r ~bounds:[| 0.5; 1.0 |] "olar_lat_seconds" in
  List.iter (Metrics.Histogram.observe h) [ 0.25; 0.75; 9.0 ];
  let text = Exposition.to_prometheus r in
  let expect =
    "# HELP olar_weird_total hits\\nand misses\n\
     # TYPE olar_weird_total counter\n\
     olar_weird_total 3\n\
     # TYPE olar_gauge gauge\n\
     olar_gauge 2.5\n\
     # TYPE olar_lat_seconds histogram\n\
     olar_lat_seconds_bucket{le=\"0.5\"} 1\n\
     olar_lat_seconds_bucket{le=\"1\"} 2\n\
     olar_lat_seconds_bucket{le=\"+Inf\"} 3\n\
     olar_lat_seconds_sum 10\n\
     olar_lat_seconds_count 3\n"
  in
  check Alcotest.string "prometheus exposition" expect text

(* ------------------------------------------------------------------ *)
(* Jsonx *)

let test_jsonx_printing () =
  let v =
    Jsonx.Obj
      [
        ("a", Jsonx.Arr [ Jsonx.Int 1; Jsonx.Float 2.5; Jsonx.Null ]);
        ("s", Jsonx.Str "tab\there \"q\" \\");
        ("b", Jsonx.Bool false);
        ("nan", Jsonx.Float Float.nan);
      ]
  in
  check Alcotest.string "compact printing"
    "{\"a\":[1,2.5,null],\"s\":\"tab\\there \\\"q\\\" \\\\\",\"b\":false,\
     \"nan\":null}"
    (Jsonx.to_string v)

let test_jsonx_parsing () =
  (match Jsonx.of_string " { \"k\" : [ 1 , -2.5e1 , \"\\u00e9\\ud83d\\ude00\" ] } " with
  | Ok (Jsonx.Obj [ ("k", Jsonx.Arr [ Jsonx.Int 1; Jsonx.Float f; Jsonx.Str s ]) ])
    when f = -25.0 ->
    check Alcotest.string "unicode escapes" "\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "parsed to an unexpected shape"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Jsonx.of_string bad with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "01"; "\"\\x\""; "{}}"; "nul"; "\"\n\"" ]

(* Structural round-trip, with numbers compared by value: the printer
   writes 1.0 as "1", which re-parses as Int 1. *)
let rec equiv a b =
  match (a, b) with
  | Jsonx.Int x, Jsonx.Float y | Jsonx.Float y, Jsonx.Int x ->
    float_of_int x = y
  | Jsonx.Arr xs, Jsonx.Arr ys ->
    List.length xs = List.length ys && List.for_all2 equiv xs ys
  | Jsonx.Obj xs, Jsonx.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && equiv v1 v2)
         xs ys
  | a, b -> a = b

let jsonx_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Jsonx.Null;
            map (fun b -> Jsonx.Bool b) bool;
            map (fun i -> Jsonx.Int i) int;
            map (fun f -> Jsonx.Float f) (float_range (-1e9) 1e9);
            map (fun s -> Jsonx.Str s) string_printable;
          ]
      in
      if n <= 0 then leaf
      else
        oneof
          [
            leaf;
            map (fun xs -> Jsonx.Arr xs)
              (list_size (int_range 0 4) (self (n / 2)));
            map
              (fun kvs -> Jsonx.Obj kvs)
              (list_size (int_range 0 4)
                 (pair string_printable (self (n / 2))));
          ])

let jsonx_roundtrip_prop =
  QCheck2.Test.make ~name:"obs: jsonx print/parse round-trip" ~count:300
    ~print:(fun v -> Jsonx.to_string v)
    jsonx_gen
    (fun v ->
      match Jsonx.of_string (Jsonx.to_string v) with
      | Ok v' -> equiv v v'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Obs façade *)

let test_query_span_records () =
  let sink, spans = Sink.memory () in
  let now = ref 0.0 in
  match Obs.create ~clock:(fun () -> !now) ~trace:sink () with
  | None -> Alcotest.fail "create returned disabled"
  | Some ctx ->
    let r = Obs.metrics ctx in
    let result =
      Obs.query_span (Obs.query ctx ~name:"itemsets" ~work:Obs.Vertices)
        (fun work ->
          Olar_util.Timer.Counter.bump work;
          Olar_util.Timer.Counter.bump work;
          now := 0.25;
          "answer")
    in
    check Alcotest.string "result passes through" "answer" result;
    (match Metrics.find r "olar_queries_total" with
    | Some { Metrics.metric = Metrics.M_counter c; _ } ->
      check Alcotest.int "queries counted" 1 (Metrics.Counter.value c)
    | _ -> Alcotest.fail "olar_queries_total missing");
    (match Metrics.find r "olar_query_vertices_visited_total" with
    | Some { Metrics.metric = Metrics.M_counter c; _ } ->
      check Alcotest.int "work flows to the registry" 2
        (Metrics.Counter.value c)
    | _ -> Alcotest.fail "vertices counter missing");
    (match Metrics.find r "olar_query_itemsets_seconds" with
    | Some { Metrics.metric = Metrics.M_histogram h; _ } ->
      check Alcotest.int "latency sampled" 1 (Metrics.Histogram.count h);
      check (Alcotest.float 1e-12) "latency value" 0.25
        (Metrics.Histogram.sum h)
    | _ -> Alcotest.fail "latency histogram missing");
    (* spans buffer in the sharded tracer until the coordinator flushes *)
    check Alcotest.int "buffered until flush" 0 (List.length (spans ()));
    Obs.flush ctx;
    match spans () with
    | [ s ] ->
      check Alcotest.string "span name" "query.itemsets" s.Trace.name;
      check Alcotest.bool "span carries the work delta" true
        (List.mem_assoc "work" s.Trace.attrs);
      check Alcotest.bool "span is domain-tagged" true
        (List.mem_assoc "domain" s.Trace.attrs)
    | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Labelled gauges and runtime/build-info gauges *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_labelled_gauge_exposition () =
  let r = Metrics.create () in
  let g =
    Metrics.gauge r ~help:"Constant 1"
      ~labels:[ ("version", "1.2.3"); ("weird key", "a\"b") ]
      "olar_build_info"
  in
  Metrics.Gauge.set g 1.0;
  (* same name+labels intern to the same cell; labels stick from the
     first registration *)
  check Alcotest.bool "interned" true (g == Metrics.gauge r "olar_build_info");
  let text = Exposition.to_text r in
  check Alcotest.bool "text carries labels" true
    (contains text "olar_build_info{version=\"1.2.3\"");
  let prom = Exposition.to_prometheus r in
  let expect =
    "# HELP olar_build_info Constant 1\n\
     # TYPE olar_build_info gauge\n\
     olar_build_info{version=\"1.2.3\",weird_key=\"a\\\"b\"} 1\n"
  in
  check Alcotest.string "prometheus series with labels" expect prom;
  match Exposition.to_json r with
  | Jsonx.Obj [ ("olar_build_info", v) ] ->
    check
      (Alcotest.option Alcotest.string)
      "label in json" (Some "1.2.3")
      Jsonx.(Option.bind (path [ "labels"; "version" ] v) to_str);
    check
      (Alcotest.option (Alcotest.float 1e-12))
      "value in json" (Some 1.0)
      Jsonx.(Option.bind (member "value" v) number)
  | _ -> Alcotest.fail "unexpected json shape"

let test_runtime_and_build_gauges () =
  let now = ref 10.0 in
  match Obs.create ~clock:(fun () -> !now) () with
  | None -> Alcotest.fail "create returned disabled"
  | Some ctx ->
    now := 12.5;
    Obs.update_runtime_gauges ctx;
    Obs.set_build_info ctx ~version:"9.9.9";
    let r = Obs.metrics ctx in
    let gauge_value name =
      match Metrics.find r name with
      | Some { Metrics.metric = Metrics.M_gauge g; _ } -> Metrics.Gauge.value g
      | _ -> Alcotest.failf "gauge %s missing" name
    in
    check (Alcotest.float 1e-9) "uptime from the ctx clock" 2.5
      (gauge_value "olar_uptime_seconds");
    check Alcotest.bool "minor collections non-negative" true
      (gauge_value "olar_gc_minor_collections_total" >= 0.0);
    check Alcotest.bool "major collections non-negative" true
      (gauge_value "olar_gc_major_collections_total" >= 0.0);
    check Alcotest.bool "heap words non-negative" true
      (gauge_value "olar_heap_words" >= 0.0);
    check (Alcotest.float 1e-12) "build info is constant 1" 1.0
      (gauge_value "olar_build_info");
    (match Metrics.find r "olar_build_info" with
    | Some { Metrics.labels = [ ("version", "9.9.9") ]; _ } -> ()
    | _ -> Alcotest.fail "build info labels wrong");
    (* idempotent: a second update resamples the same cells *)
    now := 20.0;
    Obs.update_runtime_gauges ctx;
    check (Alcotest.float 1e-9) "uptime resampled" 10.0
      (gauge_value "olar_uptime_seconds");
    (* all three formats render the labelled gauge without raising *)
    ignore (Exposition.to_text r);
    ignore (Exposition.to_prometheus r);
    ignore (Exposition.to_json r)

(* ------------------------------------------------------------------ *)
(* Gauge max and labelled histograms *)

let test_gauge_max () =
  let r = Metrics.create () in
  let g = Metrics.gauge r ~help:"peak" "peak" in
  Metrics.Gauge.max_int g 3;
  check (Alcotest.float 1e-12) "first max sets" 3.0 (Metrics.Gauge.value g);
  Metrics.Gauge.max_int g 1;
  check (Alcotest.float 1e-12) "lower max ignored" 3.0 (Metrics.Gauge.value g);
  Metrics.Gauge.max_float g 7.5;
  check (Alcotest.float 1e-12) "higher max wins" 7.5 (Metrics.Gauge.value g);
  (* racing maxima from several domains still converge on the largest *)
  let workers =
    Array.init 4 (fun w ->
        Domain.spawn (fun () ->
            for i = 1 to 1000 do
              Metrics.Gauge.max_int g ((w * 1000) + i)
            done))
  in
  Array.iter Domain.join workers;
  check (Alcotest.float 1e-12) "concurrent max converges" 4000.0
    (Metrics.Gauge.value g)

let test_labelled_histogram_exposition () =
  let r = Metrics.create () in
  let mk phase =
    Metrics.histogram r ~help:"per-phase latency"
      ~labels:[ ("phase", phase) ]
      "olar_http_phase_seconds"
  in
  let hp = mk "parse" and hq = mk "queue" in
  check Alcotest.bool "series intern by (name, labels)" true (hp != hq);
  check Alcotest.bool "same labels re-intern" true (hp == mk "parse");
  Metrics.Histogram.observe hp 0.5;
  Metrics.Histogram.observe hq 1.5;
  let prom = Exposition.to_prometheus r in
  check Alcotest.bool "parse bucket labelled" true
    (contains prom "olar_http_phase_seconds_bucket{phase=\"parse\",le=");
  check Alcotest.bool "queue bucket labelled" true
    (contains prom "olar_http_phase_seconds_bucket{phase=\"queue\",le=");
  check Alcotest.bool "sum keeps constant labels" true
    (contains prom "olar_http_phase_seconds_sum{phase=\"parse\"} 0.5");
  check Alcotest.bool "count keeps constant labels" true
    (contains prom "olar_http_phase_seconds_count{phase=\"queue\"} 1");
  (* HELP/TYPE are announced once per base name, not once per series *)
  let occurrences needle =
    let n = String.length needle in
    let rec go i acc =
      if i + n > String.length prom then acc
      else if String.sub prom i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  check Alcotest.int "one HELP line" 1
    (occurrences "# HELP olar_http_phase_seconds ");
  check Alcotest.int "one TYPE line" 1
    (occurrences "# TYPE olar_http_phase_seconds ")

(* ------------------------------------------------------------------ *)
(* Sharded tracer *)

let test_sharded_tracer () =
  let sink, spans = Sink.memory () in
  let sh = Trace.Sharded.create ~emit:(Sink.emit sink) () in
  let worker tag () =
    let t = Trace.Sharded.tracer sh in
    Trace.with_span t (tag ^ ".outer") (fun () ->
        Trace.with_span t (tag ^ ".inner") (fun () -> ()))
  in
  let domains =
    Array.init 3 (fun i -> Domain.spawn (worker (Printf.sprintf "d%d" i)))
  in
  Array.iter Domain.join domains;
  worker "main" ();
  check Alcotest.bool "nothing emitted before flush" true (spans () = []);
  check Alcotest.bool "four shards interned" true (Trace.Sharded.shards sh >= 4);
  Trace.Sharded.flush sh;
  let emitted = spans () in
  check Alcotest.int "all spans merged" 8 (List.length emitted);
  let domain_of s =
    match List.assoc_opt "domain" s.Trace.attrs with
    | Some (Trace.Int d) -> d
    | _ -> Alcotest.failf "span %s lacks a domain tag" s.Trace.name
  in
  let ids = List.map (fun s -> s.Trace.id) emitted in
  check Alcotest.int "ids unique across domains"
    (List.length ids)
    (List.length (List.sort_uniq compare ids));
  (* per domain: exactly one outer and one inner, child emitted first,
     parentage intact after the merge *)
  let by_domain = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let d = domain_of s in
      Hashtbl.replace by_domain d (s :: (try Hashtbl.find by_domain d with Not_found -> [])))
    emitted;
  check Alcotest.int "four domains tagged" 4 (Hashtbl.length by_domain);
  Hashtbl.iter
    (fun d group ->
      match List.rev group with
      | [ inner; outer ] ->
        check Alcotest.bool
          (Printf.sprintf "domain %d child-first" d)
          true
          (String.length inner.Trace.name >= 6
          && String.sub inner.Trace.name
               (String.length inner.Trace.name - 6)
               6
             = ".inner");
        check
          (Alcotest.option Alcotest.int)
          (Printf.sprintf "domain %d parentage" d)
          (Some outer.Trace.id) inner.Trace.parent;
        check
          (Alcotest.option Alcotest.int)
          (Printf.sprintf "domain %d root" d)
          None outer.Trace.parent
      | l ->
        Alcotest.failf "domain %d emitted %d spans, expected 2" d
          (List.length l))
    by_domain;
  (* injected spans: reserve the root id first, emit children before it *)
  let root = Trace.Sharded.alloc_id sh in
  let child =
    Trace.Sharded.inject sh ~parent:root ~depth:1 ~name:"phase.queue"
      ~start_s:0.0 ~duration_s:0.1 []
  in
  let root' =
    Trace.Sharded.inject sh ~id:root ~depth:0 ~name:"http.request"
      ~start_s:0.0 ~duration_s:0.2
      [ ("request", Trace.Int 42) ]
  in
  check Alcotest.int "reserved id honoured" root root';
  Trace.Sharded.flush sh;
  match spans () with
  | _ :: _ as all ->
    let tail = List.filteri (fun i _ -> i >= 8) all in
    (match tail with
    | [ c; r ] ->
      check Alcotest.string "child injected first" "phase.queue" c.Trace.name;
      check Alcotest.string "root injected last" "http.request" r.Trace.name;
      check (Alcotest.option Alcotest.int) "injected parentage" (Some root)
        c.Trace.parent;
      check Alcotest.int "child id distinct" child c.Trace.id;
      check Alcotest.bool "injected spans domain-tagged" true
        (List.mem_assoc "domain" c.Trace.attrs
        && List.mem_assoc "domain" r.Trace.attrs)
    | l -> Alcotest.failf "expected 2 injected spans, got %d" (List.length l))
  | [] -> Alcotest.fail "second flush emitted nothing"

(* ------------------------------------------------------------------ *)
(* Sliding windows *)

let test_collect_hook_samples_at_exposition () =
  let now = ref 100.0 in
  match Obs.create ~clock:(fun () -> !now) () with
  | None -> Alcotest.fail "create returned disabled"
  | Some ctx ->
    let r = Obs.metrics ctx in
    let uptime () =
      match Metrics.find r "olar_uptime_seconds" with
      | Some { Metrics.metric = Metrics.M_gauge g; _ } -> Metrics.Gauge.value g
      | _ -> Alcotest.fail "uptime gauge missing"
    in
    (* no explicit [update_runtime_gauges]: rendering runs the
       registry's collect hooks, so the scrape itself samples the
       runtime gauges at exposition time *)
    now := 107.0;
    ignore (Exposition.to_prometheus r);
    check (Alcotest.float 1e-9) "prometheus scrape sampled uptime" 7.0
      (uptime ());
    now := 111.5;
    ignore (Exposition.to_json r);
    check (Alcotest.float 1e-9) "json render resampled uptime" 11.5 (uptime ())

let test_window_basics () =
  let now = ref 0.0 in
  let w = Window.create ~clock:(fun () -> !now) ~buckets:3 ~width_s:1.0 () in
  check (Alcotest.float 1e-12) "span" 3.0 (Window.span_s w);
  let c = Window.Counter.create "reqs" in
  let cv = Window.track_counter w c in
  let h = H.of_bounds "lat" [| 0.01; 0.1; 1.0 |] in
  let hv = Window.track_histogram w h in
  Window.Counter.add c 5;
  List.iter (H.observe h) [ 0.005; 0.005; 0.05; 0.5 ];
  check Alcotest.int "delta before any tick" 5 (Window.counter_delta cv);
  check (Alcotest.float 1e-12) "rate over zero elapsed time" 0.0
    (Window.counter_rate cv);
  let hw = Window.histogram_window hv in
  check Alcotest.int "windowed sample count" 4 hw.Window.count;
  check (Alcotest.float 1e-9) "windowed sum" 0.56 hw.Window.sum;
  check (Alcotest.float 1e-12) "windowed p50 is a bucket upper bound" 0.01
    hw.Window.p50;
  check (Alcotest.float 1e-12) "windowed p99" 1.0 hw.Window.p99;
  now := 1.0;
  Window.tick w;
  check (Alcotest.float 1e-12) "rate over one second" 5.0
    (Window.counter_rate cv);
  (* rotate the ring past the span: boundaries at t=2,3,4 remain, the
     start boundary (t=2) postdates all the activity above *)
  now := 2.0;
  Window.tick w;
  now := 3.0;
  Window.tick w;
  now := 4.0;
  Window.tick w;
  check Alcotest.int "counter activity aged out" 0 (Window.counter_delta cv);
  check Alcotest.int "histogram activity aged out" 0
    (Window.histogram_window hv).Window.count;
  Window.Counter.add c 2;
  check Alcotest.int "fresh activity visible" 2 (Window.counter_delta cv);
  (* attaching back-fills every boundary with the current value, so a
     pre-existing count never reads as a windowed burst *)
  let late = Window.Counter.create "late" in
  Window.Counter.add late 100;
  let lv = Window.track_counter w late in
  check Alcotest.int "attach back-fills history" 0 (Window.counter_delta lv);
  Window.Counter.incr late;
  check Alcotest.int "post-attach increments count" 1 (Window.counter_delta lv);
  Window.Counter.reset late;
  check Alcotest.int "external reset clamps at zero" 0 (Window.counter_delta lv)

let test_window_clock_jump () =
  let now = ref 0.0 in
  let w = Window.create ~clock:(fun () -> !now) ~buckets:4 ~width_s:1.0 () in
  let c = Window.Counter.create "jump" in
  let cv = Window.track_counter w c in
  Window.Counter.add c 7;
  now := 1.0;
  Window.tick w;
  Window.Counter.add c 3;
  (* the ticker stalls while the clock runs far past the span: every
     boundary is stale, so readings fall back to the newest one *)
  now := 500.0;
  check Alcotest.int "stale ring falls back to the newest boundary" 3
    (Window.counter_delta cv);
  check (Alcotest.float 1e-9) "covered since the newest boundary" 499.0
    (Window.covered_s w);
  (* the next tick starts a short fresh window instead of a stale long
     one *)
  Window.tick w;
  check Alcotest.int "fresh window after the jump" 0 (Window.counter_delta cv);
  check (Alcotest.float 1e-12) "fresh window covers nothing yet" 0.0
    (Window.covered_s w);
  Window.Counter.incr c;
  now := 500.5;
  check Alcotest.int "new activity visible after the jump" 1
    (Window.counter_delta cv);
  check (Alcotest.float 1e-9) "rate over the fresh half second" 2.0
    (Window.counter_rate cv)

let test_window_validation () =
  let clock () = 0.0 in
  (match Window.create ~clock ~buckets:0 () with
  | _ -> Alcotest.fail "buckets=0 accepted"
  | exception Invalid_argument _ -> ());
  (match Window.create ~clock ~width_s:0.0 () with
  | _ -> Alcotest.fail "width_s=0 accepted"
  | exception Invalid_argument _ -> ());
  let w = Window.create ~clock () in
  let hv = Window.track_histogram w (H.create "q") in
  (match Window.histogram_quantile hv 1.5 with
  | _ -> Alcotest.fail "quantile out of range accepted"
  | exception Invalid_argument _ -> ());
  check Alcotest.bool "empty windowed quantile is nan" true
    (Float.is_nan (Window.histogram_quantile hv 0.5))

(* Differential: drive a ring-of-buckets window and a brute-force list
   model through the same op sequence (bumps, observations, clock
   advances including jumps past the span, ticks) and demand identical
   readings after every op. The model restates the spec directly —
   retained boundaries newest-last, start = oldest retained inside the
   span else the newest — so any ring-index slip in the implementation
   shows up as a divergence. *)
let window_differential_prop =
  QCheck2.Test.make ~name:"obs: window matches a brute-force model" ~count:150
    QCheck2.Gen.(
      let op =
        frequency
          [
            (3, map (fun n -> `Add n) (int_range 1 40));
            (3, map (fun x -> `Obs x) (float_range 1e-6 50.0));
            (4, map (fun dt -> `Advance dt) (float_range 0.0 2.5));
            (1, return (`Advance 400.0));
            (3, return `Tick);
          ]
      in
      list_size (int_range 1 120) op)
    (fun ops ->
      let now = ref 1000.0 in
      let buckets = 5 and width_s = 1.0 in
      let w = Window.create ~clock:(fun () -> !now) ~buckets ~width_s () in
      let c = Window.Counter.create "m" in
      let h = H.create "mh" in
      let cv = Window.track_counter w c in
      let hv = Window.track_histogram w h in
      let bounds = H.bounds h in
      let span = float_of_int buckets *. width_s in
      (* model boundaries, oldest first, at most [buckets] retained *)
      let snap () = (!now, Window.Counter.value c, H.counts h, H.sum h) in
      let bnds = ref [ snap () ] in
      let newest_time () =
        match List.rev !bnds with
        | (t, _, _, _) :: _ -> t
        | [] -> assert false
      in
      let start_boundary () =
        let horizon = !now -. span in
        let rec go = function
          | [ last ] -> last
          | ((t, _, _, _) as b) :: rest -> if t >= horizon then b else go rest
          | [] -> assert false
        in
        go !bnds
      in
      let feq a b = (Float.is_nan a && Float.is_nan b) || a = b in
      let agrees () =
        let bt, bc, bcounts, bsum = start_boundary () in
        let exp_delta = max 0 (Window.Counter.value c - bc) in
        let dt = !now -. bt in
        let exp_rate = if dt > 0.0 then float_of_int exp_delta /. dt else 0.0 in
        let exp_counts =
          Array.mapi (fun i x -> max 0 (x - bcounts.(i))) (H.counts h)
        in
        let exp_count = Array.fold_left ( + ) 0 exp_counts in
        let exp_sum =
          if exp_count = 0 then 0.0 else Float.max 0.0 (H.sum h -. bsum)
        in
        let exp_hrate =
          if dt > 0.0 then float_of_int exp_count /. dt else 0.0
        in
        let q p = H.quantile_of ~bounds ~counts:exp_counts p in
        let hw = Window.histogram_window hv in
        Window.counter_delta cv = exp_delta
        && feq (Window.counter_rate cv) exp_rate
        && hw.Window.count = exp_count
        && feq hw.Window.sum exp_sum
        && feq hw.Window.rate exp_hrate
        && feq hw.Window.p50 (q 0.5)
        && feq hw.Window.p90 (q 0.9)
        && feq hw.Window.p99 (q 0.99)
        && feq (Window.covered_s w) (Float.max 0.0 dt)
      in
      List.for_all
        (fun op ->
          (match op with
          | `Add n -> Window.Counter.add c n
          | `Obs x -> H.observe h x
          | `Advance dt -> now := !now +. dt
          | `Tick ->
            if !now -. newest_time () >= width_s then begin
              bnds := !bnds @ [ snap () ];
              let extra = List.length !bnds - buckets in
              if extra > 0 then
                bnds := List.filteri (fun i _ -> i >= extra) !bnds
            end;
            Window.tick w);
          agrees ())
        ops)

let case name f = Alcotest.test_case name `Quick f

let suites =
  [
    ( "obs.metrics",
      [
        case "log bounds" test_histogram_bounds;
        case "observe/quantile" test_histogram_observe;
        case "registry interning" test_registry_interning;
        QCheck_alcotest.to_alcotest histogram_quantile_prop;
      ] );
    ( "obs.trace",
      [
        case "nesting and order" test_span_nesting;
        case "emitted on raise" test_span_emitted_on_raise;
        case "exit closed span" test_exit_closed_span;
        case "exit unwinds abandoned" test_exit_unwinds_abandoned;
        case "raising attrs closes span" test_attrs_raise_closes_span;
        case "raise with open child" test_raise_with_open_child;
        case "jsonl golden" test_jsonl_golden;
        case "sharded merge" test_sharded_tracer;
      ] );
    ( "obs.exposition",
      [
        case "escaping" test_prometheus_escaping;
        case "prometheus text" test_prometheus_exposition;
        case "labelled gauge" test_labelled_gauge_exposition;
        case "gauge max" test_gauge_max;
        case "labelled histogram" test_labelled_histogram_exposition;
        case "runtime and build gauges" test_runtime_and_build_gauges;
        case "collect hooks sample at exposition"
          test_collect_hook_samples_at_exposition;
      ] );
    ( "obs.window",
      [
        case "tracking, rotation and aging" test_window_basics;
        case "clock-jump fallback" test_window_clock_jump;
        case "argument validation" test_window_validation;
        QCheck_alcotest.to_alcotest window_differential_prop;
      ] );
    ( "obs.jsonx",
      [
        case "printing" test_jsonx_printing;
        case "parsing" test_jsonx_parsing;
        QCheck_alcotest.to_alcotest jsonx_roundtrip_prop;
      ] );
    ("obs.facade", [ case "query_span" test_query_span_records ]);
  ]
