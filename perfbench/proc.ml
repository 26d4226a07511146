(* Child processes: the olar CLI for dataset generation and
   preprocessing, and the `olar serve` daemon under test. Every child
   is tracked so an early exit still terminates and reaps it. *)

let live : int list ref = ref []

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0

(* Start [prog args] with stdout and stderr sent to [log]. *)
let spawn ~log prog args =
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let inp = devnull () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close inp)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) inp out out)
  in
  live := pid :: !live;
  pid

let forget pid = live := List.filter (( <> ) pid) !live

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let rec waitpid_eintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_eintr flags pid

(* Run to completion; the log's contents, or an error naming the
   command. *)
let run ~log prog args =
  let pid = spawn ~log prog args in
  let _, status = waitpid_eintr [] pid in
  forget pid;
  let output = read_file log in
  match status with
  | Unix.WEXITED 0 -> output
  | _ ->
    failwith
      (Printf.sprintf "%s %s failed:\n%s" prog (String.concat " " args) output)

(* SIGTERM, then SIGKILL if the child has not exited within [grace_s];
   always reaps. *)
let stop ?(grace_s = 10.0) pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec wait () =
    match waitpid_eintr [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_eintr [] pid)
      end
      else begin
        Unix.sleepf 0.01;
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  forget pid

let () = at_exit (fun () -> List.iter (fun pid -> stop ~grace_s:2.0 pid) !live)

(* Peak resident set size of [pid] in KiB, from /proc ([VmHWM]). *)
let peak_rss_kib pid =
  let lines =
    String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid))
  in
  match List.find_opt (String.starts_with ~prefix:"VmHWM:") lines with
  | None -> failwith "no VmHWM in /proc status"
  | Some l -> (
    match String.split_on_char ' ' l |> List.filter (( <> ) "") with
    | _ :: kib :: _ -> int_of_string kib
    | _ -> failwith ("unparsable " ^ l))

(* [find_int ~after text] is the integer following the first occurrence
   of [after] in [text]. *)
let find_int ~after text =
  let n = String.length after and len = String.length text in
  let rec search i =
    if i + n > len then failwith ("missing " ^ after)
    else if String.sub text i n = after then begin
      let j = ref (i + n) in
      while !j < len && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      int_of_string (String.sub text (i + n) (!j - i - n))
    end
    else search (i + 1)
  in
  search 0
