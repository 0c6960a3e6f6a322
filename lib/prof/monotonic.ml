(* The span clock: [clock_gettime(CLOCK_MONOTONIC)] through a C stub, so
   a wall-clock step (NTP, an operator's [date -s]) moves no span, lease
   deadline or harness timer. Native calls are unboxed and allocate
   nothing. *)

external now : unit -> (float[@unboxed])
  = "ic_prof_monotonic_now_byte" "ic_prof_monotonic_now"
[@@noalloc]
