(** The counts document shared by the bench gates.

    One format for every exact-count baseline: [BENCH_ladder.json]
    (written by [ladder_json.exe] from traced perfbench runs) and
    [BENCH_T10I4.json] (written by [main.exe --experiment counts
    --json]); [compare_json.exe] reads both. A document is

    {v {"ocaml_version":"5.1.1",
 "counts":[
 {"workload":"analyst","metric":"kernel.vertices_per_req","value":1216.17},
 ...]} v}

    Minor-word counts depend on the compiler, so every document records
    the [Sys.ocaml_version] it was written under. *)

type point = { workload : string; metric : string; value : float }

(** [write path points] writes the document for [points], in order, one
    point per line, under this process's [Sys.ocaml_version]. *)
val write : string -> point list -> unit

(** [read path] is the document's recorded OCaml version (if any) and
    its points, in file order, or an error naming [path] when the file
    cannot be read, does not parse, or holds a malformed point. *)
val read : string -> (string option * point list, string) result
