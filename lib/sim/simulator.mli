(** Event-driven Internet-computing simulator.

    Models the IC scenario of Section 2.2: a server holds a computation-dag
    and allocates ELIGIBLE tasks to remote clients on request; clients have
    heterogeneous speeds and noisy execution times, so tasks complete out of
    allocation order — the situation IC-optimal schedules are designed to be
    robust in. The simulator measures the two quantities the theory argues
    about: how often clients find no allocatable task ({e gridlock} /
    stalls), and how many eligible tasks are available over time
    ({e parallelism} for batch requests). See DESIGN.md §2 for why this
    substitutes for the paper's Condor/PRIO-based assessment [15, 19].

    Clients are unreliable in the ways of the paper's reference [14]: an
    {!Ic_fault.Plan} injects permanent crashes, transient disconnects with
    rejoin, straggler slowdowns and in-flight result loss, and an
    {!Ic_fault.Recovery} policy decides how the server reacts — liveness
    timeouts, bounded retries with backoff, speculative replicas with
    first-result-wins dedup, and the abort conditions of graceful
    degradation. Both are fully seeded: identically configured runs are
    byte-reproducible, faults included. *)

type config = {
  n_clients : int;
  speed : int -> float;
      (** speed of client [i] (work units per time); must be finite and
          positive — checked for every client up front in {!run} *)
  jitter : float;
      (** multiplicative execution-time noise amplitude: a task's duration
          is [work/speed * (1 + jitter * u)], [u ~ U(0,1)]. Must be finite
          and non-negative. *)
  comm_time : float;
      (** Internet-transfer time per dependence arc whose endpoint tasks
          ran on different clients (a parent's result must travel via the
          server) — "communication, a much dearer resource in IC"
          (Section 4). Added to the task's wall-clock duration, unscaled by
          client speed. Sources pay it for their server-provided input. *)
  seed : int;
  faults : Ic_fault.Plan.t;  (** what goes wrong; default {!Ic_fault.Plan.none} *)
  recovery : Ic_fault.Recovery.t;
      (** what the server does about it; default
          {!Ic_fault.Recovery.default} (no timeouts, unbounded immediate
          retries, no speculation, no deadline — the historical
          behaviour) *)
}

val config :
  ?n_clients:int -> ?speed:(int -> float) -> ?jitter:float ->
  ?comm_time:float -> ?seed:int -> ?faults:Ic_fault.Plan.t ->
  ?recovery:Ic_fault.Recovery.t -> unit -> config
(** Defaults: 4 clients, unit speeds, jitter 0.25, free communication,
    seed 0x5EED, no faults, default recovery. Raises
    [Invalid_argument] on out-of-range knobs (including negative or
    non-finite jitter). *)

type abort_reason =
  | Retry_budget of int
      (** this task exhausted [recovery.max_retries] re-runs *)
  | Deadline  (** the simulated clock passed [recovery.deadline] *)
  | No_progress
      (** unfinished work remains but no pending event can ever release
          it — e.g. every client crashed, or results were lost with
          liveness timeouts disabled *)

type outcome = Finished | Aborted of abort_reason

type result = {
  makespan : float;
  busy_time : float;  (** summed over clients *)
  utilization : float;
      (** [busy_time / (n_clients * makespan)]; [0] when the makespan is
          zero (an empty dag, or all-zero work), never NaN *)
  stalls : int;
      (** task requests that found no eligible task although unfinished
          work remained — the gridlock events *)
  stall_time : float;  (** total client time spent stalled *)
  failures : int;  (** attempts lost to the reported-failure coin flip *)
  comm_total : float;  (** total time spent moving data between clients *)
  mean_eligible : float;
      (** time-average of the number of eligible-but-unallocated tasks
          ([0] when the makespan is zero) *)
  allocation_order : int list;
      (** every attempt launched, in allocation order; a task appears
          once per attempt *)
  completion_order : int list;
      (** each completed task exactly once, in completion order, no
          matter how many replicas ran — first result wins *)
  outcome : outcome;
  unfinished : int list;
      (** tasks not completed when the run ended, ascending; the
          descendant cone of the blocked work. Empty iff [Finished]. *)
  timeouts : int;  (** liveness timeouts fired *)
  retries : int;  (** retries scheduled (after failures and timeouts) *)
  lost : int;  (** results silently lost in transit *)
  speculations : int;  (** speculative replicas released *)
  cancelled : int;  (** redundant replicas discarded *)
  crashes : int;  (** permanent client crashes *)
  disconnects : int;  (** transient client disconnects *)
}

val run :
  ?sink:Ic_obs.Trace.t -> ?live:Ic_obs.Live.t ->
  config -> Ic_heuristics.Policy.t -> workload:Workload.t -> Ic_dag.Dag.t ->
  result
(** [run cfg policy ~workload g] simulates one complete execution of [g]
    (or a partial one, when graceful degradation aborts it — see
    {!abort_reason}).

    The policy is driven through {!Ic_heuristics.Policy.Robust}, so
    re-notification (retries, speculation) and withdrawal (another
    replica finished first) are safe for every shipped policy.

    [sink], when given, receives the full structured event stream with
    simulated timestamps: task allocation / start / completion / failure
    per client, client stall/resume periods, frontier push/pop (a pop
    before each [Frontier.execute], a push from its [on_promote]), an
    {!Ic_obs.Trace.Eligible_count}
    sample whenever the allocatable pool changes, and the fault/recovery
    events (timeout fired, retry scheduled, speculative launch, replica
    cancelled, client crash / disconnect / rejoin) — ready for
    {!Ic_obs.Exporter.chrome_trace}. [live], when given, receives
    log-bucketed histograms while the run executes (per-attempt task
    latency, end-to-end first-allocation-to-completion latency, queue
    depth at allocation, stall duration). When the run ends, the
    [result]'s counts are added to the [sim.*] counters (tasks
    allocated / completed / failed / lost, stalls, timeouts, retries,
    speculations, replicas cancelled, client crashes / disconnects), so
    a registry shared by several runs accumulates, and the end-of-run
    gauges are set (makespan, utilization, mean eligible, unfinished
    count, per-client busy fraction). With neither installed the run
    costs one branch per instrumentation site; identically seeded runs
    produce identical results, identical traces and byte-identical
    {!Ic_obs.Live.to_json}.

    Raises [Invalid_argument] if [cfg.speed] yields a non-positive or
    non-finite speed for any client. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_result : Format.formatter -> result -> unit
