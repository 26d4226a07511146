(* Dispatch-overhead microbench (the @dispatch-bench alias).

   Measures requests/sec at zero query work — the null query is a
   [Count_itemsets] at minsup 1.0 over a tiny lattice, so virtually all
   measured time is scheduling — through the continuous-dispatch
   [Olar_serve.Pool], via [Pool.submit], in two modes: submit1 drains
   after every request (one request in flight), stream64 keeps up to 64
   requests in flight.

   Each mode runs at 1/2/4/8 domains. With --json PATH the results
   MERGE into an existing bench document under [experiments.dispatch]
   (or create a minimal one), so the same file accumulates the main
   harness's experiments and this sweep; compare_json gates every
   (mode, domains) point as [dispatch/<mode>/d<N>]. *)

open Olar_data
module Engine = Olar_core.Engine
module Pool = Olar_serve.Pool
module Jsonx = Olar_obs.Jsonx
module Timer = Olar_util.Timer

let params =
  Olar_datagen.Params.make
    ~over:
      {
        Olar_datagen.Params.default with
        num_items = 60;
        num_potential = 40;
        seed = 11;
      }
    ~avg_transaction_size:6.0 ~avg_itemset_size:3.0 ~num_transactions:500 ()

(* The null query: minsup 1.0 cuts above every vertex, so the engine
   answers from the cut without walking the lattice. *)
let null_req = Pool.Count_itemsets { containing = Itemset.empty; minsup = 1.0 }

(* ------------------------------------------------------------------ *)
(* Modes                                                              *)
(* ------------------------------------------------------------------ *)

let run_submit lat ~domains ~window ~requests =
  Pool.with_pool ~domains ~budget_bytes:0 (Engine.of_lattice lat) (fun pool ->
      let deliver _ _ = () in
      let elapsed =
        Timer.time (fun () ->
            for i = 1 to requests do
              Pool.submit pool null_req deliver;
              if i mod window = 0 then Pool.drain pool
            done;
            Pool.drain pool)
        |> snd
      in
      (requests, elapsed))

type point = {
  mode : string;
  domains : int;
  served : int;
  seconds : float;
}

let qps p = if p.seconds > 0.0 then float_of_int p.served /. p.seconds else 0.0

let modes = [ ("submit1", 1); ("stream64", 64) ]

(* ------------------------------------------------------------------ *)
(* JSON merge                                                         *)
(* ------------------------------------------------------------------ *)

(* Fold the dispatch experiment into an existing bench document (the
   main harness's --json output) or start a minimal one, so a single
   file carries both sweeps and compare_json sees every series. *)
let write_json path points requests =
  let dispatch =
    Jsonx.Obj
      [
        ("requests", Jsonx.Int requests);
        ( "points",
          Jsonx.Arr
            (List.map
               (fun p ->
                 Jsonx.Obj
                   [
                     ("mode", Jsonx.Str p.mode);
                     ("domains", Jsonx.Int p.domains);
                     ("queries", Jsonx.Int p.served);
                     ("seconds", Jsonx.Float p.seconds);
                     ("qps", Jsonx.Float (qps p));
                   ])
               points) );
      ]
  in
  let base =
    if Sys.file_exists path then
      let text = In_channel.with_open_bin path In_channel.input_all in
      match Jsonx.of_string text with
      | Ok doc -> doc
      | Error e -> failwith (Printf.sprintf "%s: %s" path e)
    else
      Jsonx.Obj
        [
          ("schema_version", Jsonx.Int 1);
          ("scale", Jsonx.Str "default");
          ("experiments", Jsonx.Obj []);
        ]
  in
  let doc =
    match base with
    | Jsonx.Obj fields ->
      let experiments =
        match Jsonx.member "experiments" base with
        | Some (Jsonx.Obj exps) ->
          Jsonx.Obj
            (List.remove_assoc "dispatch" exps @ [ ("dispatch", dispatch) ])
        | _ -> Jsonx.Obj [ ("dispatch", dispatch) ]
      in
      Jsonx.Obj
        (List.remove_assoc "experiments" fields @ [ ("experiments", experiments) ])
    | _ -> failwith (path ^ ": not a JSON object")
  in
  let oc = open_out path in
  output_string oc (Jsonx.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "[json] merged dispatch experiment into %s\n" path

(* ------------------------------------------------------------------ *)

let () =
  let requests = ref 10_000 in
  let domain_sweep = ref [ 1; 2; 4; 8 ] in
  let json = ref None in
  let rec parse = function
    | [] -> ()
    | "--requests" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 64 -> requests := n
      | _ -> failwith "--requests must be an integer >= 64");
      parse rest
    | "--domains" :: spec :: rest ->
      domain_sweep :=
        List.map
          (fun s ->
            match int_of_string_opt (String.trim s) with
            | Some d when d >= 1 -> d
            | _ -> failwith "--domains expects a comma-separated list, e.g. 1,2,4")
          (String.split_on_char ',' spec);
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S" arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let db = Olar_datagen.Quest.generate params in
  let lat =
    Engine.lattice (Engine.at_threshold db ~primary_support:0.01)
  in
  Printf.printf
    "dispatch microbench: %d null requests per point, lattice of %d vertices\n"
    !requests
    (Olar_core.Lattice.num_vertices lat);
  Printf.printf "%-10s %8s %10s %12s\n" "mode" "domains" "seconds" "req/s";
  let points =
    List.concat_map
      (fun d ->
        List.map
          (fun (mode, window) ->
            let served, seconds =
              run_submit lat ~domains:d ~window ~requests:!requests
            in
            let p = { mode; domains = d; served; seconds } in
            Printf.printf "%-10s %8d %10.3f %12.0f\n%!" mode d seconds (qps p);
            p)
          modes)
      !domain_sweep
  in
  Option.iter (fun path -> write_json path points !requests) !json
