(** The domains-based parallel runtime: executes the tasks of any
    [Ic_dag.Dag.t] on OCaml 5 domains, respecting the dag's dependences.

    Each domain owns a Chase–Lev deque ({!Deque}) of ready task ids.
    The dependences are counted by one {!Ic_dag.Shard_view}, the same
    concurrent count the lease server uses: completing a task calls
    {!Ic_dag.Shard_view.complete}, whose fetch-and-adds on packed atomic
    words decrement each successor's remaining-predecessor count, and the
    decrement that reaches zero pushes the successor onto the completing
    domain's deque; {!Ic_dag.Shard_view.is_complete} ends the run. An
    idle domain pops its own deque, drains the shared overflow pool, then
    steals from random victims, parking with escalating backoff when a
    full sweep finds nothing.

    Two ready-ordering modes ({!order}): [Steal] is the plain work-stealing
    runtime above; [Ic_priority] replaces the deques with a sharded
    priority pool ({!Pool}) so domains prefer tasks in a precomputed
    IC-optimal (or heuristic) order — the experiment E19 compares the two
    on wall-clock across domain counts and task granularities.

    Determinism: the runtime orders {e scheduling}, not {e values}. A
    dataflow computation driven through {!executor} computes every node
    exactly once from its parents' final values, so results are identical
    to the sequential engine's for any domain count or mode (asserted in
    the test suite). *)

type order =
  | Steal  (** plain Chase–Lev work stealing (LIFO owner, FIFO thief) *)
  | Ic_priority
      (** sharded priority pool over a precomputed rank per node *)

type stats = {
  domains : int;
  wall_s : float;  (** seconds from first seed to last join *)
  tasks : int;  (** tasks executed (= nodes of the dag) *)
  steals : int;  (** successful steals from another domain's deque/shard *)
  steal_attempts : int;  (** steal probes, successful or not *)
  overflows : int;  (** pushes that spilled to the overflow pool *)
  parks : int;  (** backoff sleeps after fully-failed sweeps *)
  per_domain_tasks : int array;  (** tasks run by each domain *)
}

val default_domains : unit -> int
(** The [IC_PAR_DOMAINS] environment variable when set to a positive
    integer, otherwise [Domain.recommended_domain_count ()]. *)

val run :
  ?domains:int ->
  ?order:order ->
  ?priority:int array ->
  ?sink:Ic_obs.Trace.t ->
  ?live:Ic_obs.Live.t ->
  Ic_dag.Dag.t ->
  task:(int -> unit) ->
  stats
(** [run g ~task] executes [task v] exactly once for every node [v] of
    [g], never before all of [v]'s predecessors' tasks returned; [task]
    must be safe to call from any domain.

    [domains] (default {!default_domains}, clamped to at least 1) is the
    total worker count — the calling domain is worker 0, [domains - 1]
    are spawned. [order] defaults to [Steal]. [priority] (Ic_priority
    only; default the identity, i.e. ascending node id) maps node to
    rank, lower first, equal ranks by node id; [Invalid_argument] on a
    length mismatch. Each deque holds 8192 tasks; a push to a full deque
    spills to a shared mutex-protected stack rather than resizing.

    An idle worker whose steal sweep keeps failing escalates from
    spinning to sleeping: the [k]-th consecutive failed sweep past the
    spin threshold sleeps [min 1e-3 (k * 2e-6)] seconds.

    [sink], when given, receives one [task_alloc]/[task_complete] pair
    per task, stamped with wall-clock seconds since the run started and
    carrying the executing domain as the client id — per-domain buffers
    are merged into [sink] time-sorted after the join, so the Perfetto
    exporter renders one track per domain.

    [live], when given, receives a [par.task_s] latency histogram per
    task while the run executes. At the join, the {!stats} counts are
    added to the counters [par.tasks], [par.steals],
    [par.steal_attempts], [par.overflows] and [par.parks] (so they
    accumulate across runs sharing a registry, as under {!executor}),
    and the [par.domains] / [par.wall_s] gauges are set. Absent, it
    costs one branch per task. *)

val executor :
  ?domains:int ->
  ?order:order ->
  ?priority:int array ->
  ?sink:Ic_obs.Trace.t ->
  ?live:Ic_obs.Live.t ->
  ?on_stats:(stats -> unit) ->
  unit ->
  Ic_dag.Dag.t ->
  (int -> unit) ->
  unit
(** [executor () ] as an [Ic_compute.Engine.execute ?executor] strategy:
    partially applied to its options, it runs the engine's [step] through
    {!run}. [on_stats] receives the run's {!stats} (the engine's
    signature has nowhere to return them). *)
