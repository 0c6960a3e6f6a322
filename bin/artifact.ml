(* The one way the executables write an output file: a trace, a metrics
   dump, a profile report or a CSV. *)
let write file contents =
  Out_channel.with_open_text file (fun oc -> output_string oc contents)
