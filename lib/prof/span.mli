(** Nestable wall-clock self-profiling spans over named regions.

    The scheduler's theory path ([Dag.Builder.build], the family
    constructors, [Frontier.create] and [Frontier.profile], the [Optimal]
    search) and [Simulator.run]'s phases are wrapped in [enter]/[leave]
    pairs keyed by static region names. While profiling is {!enable}d,
    each pair records two events, [Span_enter] and [Span_leave], into
    one global {!Ic_obs.Trace} stamped with {!Monotonic.now} seconds; the
    leave event carries the span's GC allocation ([Gc.quick_stat] minor
    and direct major words). {!capture} folds the events into a span tree
    shaped by the dynamic nesting, with a call count per node: the input
    to {!Report}.

    Disabled (the default), every call is a single branch on one global
    flag with no allocation, so instrumented code is indistinguishable
    from un-instrumented code within measurement noise (the perf JSON's
    ["prof" phase] measures exactly this; see DESIGN.md).

    The trace is global mutable state for a single-threaded process, and
    it grows by two events per span while profiling is on: keep spans out
    of per-step loops. Toggle {!enable}/{!disable} outside any open span;
    a span left open when profiling is disabled simply never accumulates
    its last interval. *)

val enabled : unit -> bool
val enable : unit -> unit

val disable : unit -> unit
(** Also forgets the open spans, so after a later {!enable} the next span
    opens at the top level. *)

val reset : unit -> unit
(** Drop every recorded span, and forget the open ones. *)

(** {1 Recording} *)

val enter : string -> unit
(** Open a span named [name] nested under the innermost open span.
    Recursive re-entry nests (a span "f" inside "f" is a child named "f"),
    so flamegraphs show recursion depth. Call sites should pass static
    strings: building a name allocates even when profiling is off. *)

val leave : unit -> unit
(** Close the innermost open span, recording its allocation since
    {!enter}. Unbalanced calls at the root are ignored.
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
(** The top-level spans, folded from the recorded events by call path
    (deterministically sorted by name at every level). Spans still open
    are counted, and contribute their closed intervals only. *)
