let next = Atomic.make 0

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
  | () -> Unix.rename tmp path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e
