(** The [par] bench group: wall-clock and steal-counter records for the
    domains-based parallel runtime ([Ic_par]).

    It executes each payload family sequentially and then under the
    parallel runtime across a sweep of domain counts and ordering
    modes, emitting one JSON record per configuration plus a deque
    push/pop microbenchmark. *)

val run : quick:bool -> emit:(string -> unit) -> unit
(** [run ~quick ~emit] benchmarks the parallel runtime, passing each
    JSON record (one object per line, same shape the perf gate parses)
    to [emit]. [quick] shrinks payload sizes and the domain sweep for
    CI smoke runs. *)
