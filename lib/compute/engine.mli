(** Generic dag-execution engine: attaches a value semantics to a
    computation-dag and executes it under a given schedule. Every "familiar
    computation" of the paper runs through this engine, demonstrating that
    the IC-optimal schedules really drive the computations they model. *)

type 'a t = {
  dag : Ic_dag.Dag.t;
  compute : int -> 'a array -> 'a;
      (** [compute v parents] produces task [v]'s value from its parents'
          values, listed in ascending parent-id order ([[||]] for a
          source).

          The [parents] array is a scratch buffer owned by the engine and
          reused across calls — read it during the call, but do not retain
          or mutate it. Copy it ([Array.sub]/[Array.copy]) if the value
          must outlive the call. *)
}

type executor = Ic_dag.Dag.t -> (int -> unit) -> unit
(** A pluggable execution strategy: [exec g step] must call [step v]
    exactly once for every node [v] of [g], never before every parent of
    [v] has been stepped. [step] calls for nodes with no dependence
    relation may run concurrently from different domains — the engine's
    own state under an executor is confined to per-node cells, so the
    dataflow discipline above is the only synchronization it needs. The
    in-process strategies are the engine's own sequential loop (the
    default) and [Ic_par.Runtime.executor]. *)

val execute :
  ?schedule:Ic_dag.Schedule.t ->
  ?executor:executor ->
  ?sink:Ic_obs.Trace.t ->
  'a t ->
  'a array
(** All node values, computed in schedule order (default: a topological
    order). Raises [Invalid_argument] if the schedule does not fit.

    [sink], when given, receives the structured execution trace: per node
    a task start/complete pair stamped with the execution step (the
    engine is untimed, so step [i] plays the role of the clock), frontier
    push/pop events, and the eligibility count after every step — the
    same event model the simulator emits, so the exporters apply
    unchanged. Without a sink each event site costs one branch.

    [executor], when given, delegates ordering to the given strategy
    instead of the engine's sequential frontier loop; each [step] call
    then reads its parents' values into a fresh buffer (so steps are safe
    to run from multiple domains) and [sink] is ignored — a parallel
    executor exports its own per-domain traces. [Invalid_argument] if
    both [schedule] and [executor] are given: an executor owns the
    order. *)

val value_at : ?schedule:Ic_dag.Schedule.t -> 'a t -> int -> 'a
(** [value_at t v] is [(execute t).(v)], but only the ancestor cone of [v]
    is computed — [compute] runs exactly once per cone node, in (schedule
    or topological) order restricted to the cone. Raises [Invalid_argument]
    if [v] is out of range or the schedule, restricted to the cone, is not
    a valid execution order (the schedule is not checked outside the
    cone). *)
