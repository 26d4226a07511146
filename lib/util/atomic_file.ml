let next = Atomic.make 0

(* Make the rename itself durable: fsync the directory holding [path]
   ("." for a bare filename). Filesystems that cannot fsync a directory
   report EINVAL; there is nothing more to do on those. *)
let fsync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let write path f =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Atomic.fetch_and_add next 1)
  in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_text ] 0o666 tmp in
  match
    f oc;
    flush oc;
    Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc
  with
  | () ->
    Unix.rename tmp path;
    fsync_dir path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
