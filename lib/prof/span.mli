(** Nestable wall-clock self-profiling spans over named regions.

    The scheduler's hot paths ([Dag.Builder.build], [Frontier.profile],
    the [Optimal] search, [Simulator.run]'s event handlers, …) are wrapped
    in [enter]/[leave] pairs keyed by static region names. While profiling
    is {!enable}d, each pair accumulates wall-clock time
    ({!Monotonic.now}), GC allocation deltas ([Gc.quick_stat] minor and
    major words) and a call count into a global span tree shaped by the
    dynamic nesting — the input to {!Report}.

    Disabled (the default), every call is a single branch on one global
    flag with no allocation, so instrumented code is indistinguishable
    from un-instrumented code within measurement noise (the perf JSON's
    ["prof" phase] measures exactly this; see DESIGN.md).

    The tree is global mutable state for a single-threaded process. Toggle
    {!enable}/{!disable} outside any open span; a span left open when
    profiling is disabled simply never accumulates its last interval. *)

val enabled : unit -> bool
val enable : unit -> unit

val disable : unit -> unit
(** Also re-points the current position at the root, so a later {!enable}
    starts from a sane state even if spans were open. *)

val reset : unit -> unit
(** Drop the whole accumulated tree. *)

(** {1 Recording} *)

val enter : string -> unit
(** Open a span named [name] nested under the innermost open span.
    Recursive re-entry nests (a span "f" inside "f" is a child named "f"),
    so flamegraphs show recursion depth. Call sites should pass static
    strings: building a name allocates even when profiling is off. *)

val leave : unit -> unit
(** Close the innermost open span, accumulating elapsed wall time and
    allocation into its node. Unbalanced calls at the root are ignored.
    An exception escaping between [enter] and [leave] leaves the span
    open — use {!time} where that matters. *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] is [f ()] inside an exception-safe [enter]/[leave] pair.
    The closure makes this unsuitable for allocation-free hot paths; use
    it for coarse, cold spans. *)

(** {1 Inspection} *)

type info = {
  info_name : string;
  info_count : int;
  total_s : float;  (** wall-clock seconds, children included *)
  minor_words : float;  (** minor-heap words allocated, children included *)
  major_words : float;  (** direct major-heap words, promotions excluded *)
  info_children : info list;  (** sorted by name *)
}
(** An immutable snapshot of one span node. *)

val capture : unit -> info list
(** Snapshot the top-level spans (deterministically sorted by name at
    every level). Spans still open contribute their closed intervals
    only. *)
