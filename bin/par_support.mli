(* The bin executables' view of the parallel runtime: the `run`
   subcommand and report's E19. *)

type outcome = {
  payload : string;  (* payload name, e.g. "wavefront-40" *)
  n_nodes : int;
  domains : int;
  order : string;  (* "steal" | "ic" *)
  wall_s : float;  (* parallel wall-clock, seconds *)
  seq_wall_s : float;  (* sequential engine wall-clock (nan if check:false) *)
  tasks : int;
  steals : int;
  steal_attempts : int;
  overflows : int;
  parks : int;
  ok : bool;  (* fingerprint = sequential's, and the self-check passed *)
}

val run :
  family:string ->
  size:int ->
  spin_us:float ->
  domains:int ->
  order:string ->
  ?trace_out:string ->
  ?metrics_out:string ->
  check:bool ->
  unit ->
  (outcome, string) result
(* [domains = 0] means auto (IC_PAR_DOMAINS or the recommended count).
   [check:false] skips the sequential baseline run and the result
   comparison ([seq_wall_s] is nan, [ok] reflects only the self-check
   being skipped, i.e. true). Errors: unknown family/order. *)
