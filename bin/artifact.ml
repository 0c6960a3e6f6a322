(* The one way the executables write an output file: a trace, a metrics
   dump, a profile report or a CSV. A file that cannot be written is a
   one-line diagnostic and exit 1. *)
let write file contents =
  try Out_channel.with_open_text file (fun oc -> output_string oc contents)
  with Sys_error e ->
    Format.eprintf "cannot write %s@." e;
    exit 1
