(* Perf-regression gate over two JSON documents.

   Usage: compare_json.exe OLD.json NEW.json

   OLD is a committed baseline (BENCH_T10I4.json, the bench harness's
   --json output, or BENCH_ladder.json, the perfbench ladder counts
   that ladder_json assembles) and NEW a fresh document of the same
   kind. Every gated series comes from one row of [table] below: where
   its points live, how each point is labelled, which number is gated,
   which way is better and how far it may move the wrong way. A series
   in OLD that is missing from NEW fails too: silently dropping a
   benchmark must not pass the gate. Series only in NEW are listed but
   not gated.

   The ladder counts (vertices, heap pops, minor words, cache
   hits/refines and evictions per rung) are deterministic, so their
   bound is 0: any drift fails, naming the workload and metric. Minor
   words depend on the compiler, so a ladder document records
   [Sys.ocaml_version]; when OLD and NEW disagree on it the gate stops
   with a re-record error instead of a list of drifts.

   Exit 0 when every gated series holds, 1 on a regression, a missing
   series or a version mismatch, 2 on unreadable input. *)

module Jsonx = Olar_obs.Jsonx

let die fmt = Format.kasprintf (fun s -> prerr_endline ("compare_json: " ^ s); exit 2) fmt

type better =
  | Higher  (** a drop beyond the bound fails *)
  | Same  (** a move either way beyond the bound fails *)

type row = {
  series : string;  (** label template: [{field}] is that field of the point *)
  points : string list;  (** path to the array of points *)
  value : string list;  (** path from a point to the gated number *)
  better : better;
  bound : float;  (** tolerated move the wrong way, as a fraction of OLD *)
}

let table =
  let qps = [ "experiments"; "qps"; "scenarios" ]
  and session = [ "experiments"; "session"; "scenarios" ]
  and dispatch = [ "experiments"; "dispatch"; "points" ] in
  let row series points value better bound =
    { series; points; value; better; bound }
  in
  [
    row "qps/{name}" qps [ "qps" ] Higher 0.20;
    row "session/{name}/uncached" session [ "uncached"; "qps" ] Higher 0.20;
    row "session/{name}/cached" session [ "cached"; "qps" ] Higher 0.20;
    (* scheduling throughput on a loaded machine swings severalfold run
       to run; the bound catches a collapsed scheduler, not timeslice
       luck *)
    row "dispatch/{mode}/d{domains}" dispatch [ "qps" ] Higher 0.90;
    row "ladder/{workload}/{metric}" [ "counts" ] [ "value" ] Same 0.0;
  ]

let read_doc path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> die "%s" e
  in
  match Jsonx.of_string text with Ok v -> v | Error e -> die "%s: %s" path e

let field_text point name =
  match Jsonx.member name point with
  | Some (Jsonx.Str s) -> s
  | Some (Jsonx.Int n) -> string_of_int n
  | _ -> die "a point lacks the %S field its label needs" name

(* Expand a label template such as "dispatch/{mode}/d{domains}". *)
let label template point =
  let buf = Buffer.create 32 in
  let rec go i =
    match String.index_from_opt template i '{' with
    | None -> Buffer.add_substring buf template i (String.length template - i)
    | Some j ->
      let k = String.index_from template j '}' in
      Buffer.add_substring buf template i (j - i);
      Buffer.add_string buf
        (field_text point (String.sub template (j + 1) (k - j - 1)));
      go (k + 1)
  in
  go 0;
  Buffer.contents buf

(* Every (label, value, row) the table finds in a document. A document
   without a row's points simply has none of its series. *)
let series doc =
  List.concat_map
    (fun row ->
      match Jsonx.path row.points doc with
      | None -> []
      | Some v ->
        let points =
          match Jsonx.to_list v with
          | Some l -> l
          | None -> die "%s is not an array" (String.concat "." row.points)
        in
        List.map
          (fun p ->
            let name = label row.series p in
            match Option.bind (Jsonx.path row.value p) Jsonx.number with
            | Some x -> (name, (x, row))
            | None -> die "%s lacks %s" name (String.concat "." row.value))
          points)
    table

let ocaml_version doc =
  Option.bind (Jsonx.member "ocaml_version" doc) Jsonx.to_str

let regression row ~old_v ~new_v =
  match row.better with
  | Higher -> new_v < old_v *. (1.0 -. row.bound)
  | Same -> Float.abs (new_v -. old_v) > Float.abs old_v *. row.bound

let () =
  let old_path, new_path =
    match Sys.argv with
    | [| _; o; n |] -> (o, n)
    | _ -> die "usage: compare_json OLD.json NEW.json"
  in
  let old_doc = read_doc old_path and new_doc = read_doc new_path in
  (match (ocaml_version old_doc, ocaml_version new_doc) with
  | Some o, n when Some o <> n ->
    Printf.eprintf
      "compare_json: %s was recorded under OCaml %s but %s under %s; \
       minor-word counts depend on the compiler, so re-record the baseline \
       (cp %s %s)\n"
      old_path o new_path
      (Option.value n ~default:"an unknown version")
      new_path old_path;
    exit 1
  | _ -> ());
  let old_series = series old_doc and new_series = series new_doc in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  Printf.printf "%-52s %14s %14s %9s\n" "series" "old" "new" "delta";
  List.iter
    (fun (name, (old_v, row)) ->
      match List.assoc_opt name new_series with
      | None ->
        Printf.printf "%-52s %14g %14s\n" name old_v "missing";
        fail "%s: missing from %s" name new_path
      | Some (new_v, _) ->
        let delta =
          if old_v = 0.0 then 0.0 else 100.0 *. ((new_v /. old_v) -. 1.0)
        in
        Printf.printf "%-52s %14g %14g %+8.1f%%\n" name old_v new_v delta;
        if regression row ~old_v ~new_v then
          if row.bound = 0.0 then
            fail "%s: %.17g -> %.17g (gated exactly)" name old_v new_v
          else
            fail "%s: %g -> %g (%+.1f%%, bound %s%.0f%%)" name old_v new_v
              delta
              (match row.better with Higher -> "-" | Same -> "±")
              (100.0 *. row.bound))
    old_series;
  List.iter
    (fun (name, (v, _)) ->
      if not (List.mem_assoc name old_series) then
        Printf.printf "%-52s %14s %14g (new series, not gated)\n" name "-" v)
    new_series;
  match List.rev !failures with
  | [] ->
    Printf.printf "OK: %d series within their bounds\n"
      (List.length old_series)
  | fs ->
    List.iter (fun f -> prerr_endline ("REGRESSION " ^ f)) fs;
    exit 1
