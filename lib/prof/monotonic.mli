external now : unit -> (float[@unboxed])
  = "ic_prof_monotonic_now_byte" "ic_prof_monotonic_now"
[@@noalloc]
(** Seconds on the [CLOCK_MONOTONIC] clock, from an arbitrary origin:
    only differences of two readings mean anything. Unaffected by
    wall-clock steps. *)
