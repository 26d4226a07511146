module Jsonx = Olar_obs.Jsonx

type point = { workload : string; metric : string; value : float }

let to_json p =
  Jsonx.Obj
    [
      ("workload", Jsonx.Str p.workload);
      ("metric", Jsonx.Str p.metric);
      ("value", Jsonx.Float p.value);
    ]

(* one point per line, so a re-recorded baseline diffs line by line *)
let write path points =
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"ocaml_version\":%s,\n\"counts\":[\n%s]}\n"
        (Jsonx.to_string (Jsonx.Str Sys.ocaml_version))
        (String.concat ",\n"
           (List.map (fun p -> Jsonx.to_string (to_json p)) points)))

let point_of_json v =
  let str k = Option.bind (Jsonx.member k v) Jsonx.to_str in
  match
    ( str "workload",
      str "metric",
      Option.bind (Jsonx.member "value" v) Jsonx.number )
  with
  | Some workload, Some metric, Some value -> Ok { workload; metric; value }
  | _ -> Error ("not a {workload, metric, value} point: " ^ Jsonx.to_string v)

let read path =
  let ( let* ) = Result.bind in
  let in_file r = Result.map_error (fun e -> path ^ ": " ^ e) r in
  let* text =
    try Ok (In_channel.with_open_bin path In_channel.input_all)
    with Sys_error e -> Error e
  in
  let* doc = in_file (Jsonx.of_string text) in
  let* counts =
    match Option.bind (Jsonx.member "counts" doc) Jsonx.to_list with
    | Some l -> Ok l
    | None -> Error (path ^ ": no \"counts\" array")
  in
  let* points =
    List.fold_right
      (fun v acc ->
        let* acc = acc in
        let* p = in_file (point_of_json v) in
        Ok (p :: acc))
      counts (Ok [])
  in
  Ok (Option.bind (Jsonx.member "ocaml_version" doc) Jsonx.to_str, points)
