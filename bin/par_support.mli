(* The bin executables' view of the parallel runtime: the `run`
   subcommand and report's E19. *)

type outcome = {
  payload : string;  (* payload name, e.g. "wavefront-40" *)
  seq_wall_s : float;  (* sequential engine wall-clock (nan if check:false) *)
  stats : Ic_par.Runtime.stats;  (* the parallel run *)
  ok : bool;  (* fingerprint = sequential's, and the self-check passed *)
}

val orders : (string * Ic_par.Runtime.order) list
(* The ready-task orderings by their command-line names: "steal" and
   "ic", in that order. *)

val order_name : Ic_par.Runtime.order -> string

val run :
  family:string ->
  size:int ->
  spin_us:float ->
  domains:int ->
  order:Ic_par.Runtime.order ->
  ?trace_out:string ->
  ?metrics_out:string ->
  check:bool ->
  unit ->
  (outcome, string) result
(* [domains = 0] means auto (IC_PAR_DOMAINS or the recommended count).
   [check:false] skips the sequential baseline run and the result
   comparison ([seq_wall_s] is nan, [ok] reflects only the self-check
   being skipped, i.e. true). Errors: unknown family, bad size or
   negative [domains]. *)
