(** Crash-safe file replacement.

    Every on-disk format the toolkit saves (lattices, databases, basket
    and vocabulary files, taxonomies) goes through {!write}, so a crash
    mid-save leaves either the old file or the new one, never a
    truncated mix that the next load refuses. *)

(** [write path f] runs [f] on a channel to a fresh temporary file next
    to [path], flushes and fsyncs it, renames it over [path], then
    fsyncs the directory holding [path] so the rename survives a power
    cut too (a bare filename means the current directory). If
    [f] (or the flush) raises, the temporary file is removed, [path] is
    left untouched and the exception propagates. The file is created
    with mode [0o666] before the umask, as {!open_out} would. *)
val write : string -> (out_channel -> unit) -> unit
