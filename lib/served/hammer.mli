(** The load harness: simulate 10^4..10^6 transient workers against a
    {!Server}.

    Two transports, one worker model. {!run_virtual} drives the server
    core directly under a discrete-event virtual clock — no sockets, no
    wall time — so a fixed seed yields byte-identical metrics and traces
    at any worker count; it is the exactly-once/determinism acceptance
    vehicle and the gridlock bench (a fleet asking for work faster than
    work becomes eligible, so most requests are refused and retried).
    {!Tcp.hammer} runs the same worker model in real time against a
    listening server over loopback TCP.

    The worker model: each worker asks for a batch of [k] tasks, runs
    them sequentially with heavy-tailed (bounded Pareto) service
    latencies, reports each [Complete], thinks briefly, and asks again;
    [Retry_after] backpressure is honoured. Churn comes from an
    {!Ic_fault.Plan} churn stream ({!Ic_fault.Plan.Churn}): a crashed
    worker goes silent forever, a disconnected one drops its in-flight
    batch (so its leases expire and re-issue) and resumes on rejoin.
    Stragglers arise naturally from the Pareto tail: a worker slower
    than the lease expiry completes a task the server has already
    re-issued, exercising the duplicate-completion path. *)

type config = private {
  workers : int;
  k : int;  (** lease batch size requested per [Lease_req] *)
  mean_service_s : float;  (** mean task service time *)
  pareto_alpha : float;
      (** tail shape of the service distribution (> 1; smaller =
          heavier tail); draws are capped at 100 x the mean *)
  think_s : float;  (** idle time between finishing a batch and re-asking *)
  churn : Ic_fault.Plan.t;  (** crash/disconnect stream per worker *)
  seed : int;
}

val config :
  ?workers:int ->
  ?k:int ->
  ?mean_service_s:float ->
  ?pareto_alpha:float ->
  ?think_s:float ->
  ?churn:Ic_fault.Plan.t ->
  ?seed:int ->
  unit ->
  config
(** Defaults: 1024 workers, [k 8], [mean_service_s 0.01],
    [pareto_alpha 1.5], [think_s 0.001], no churn, seed [0x5E4D].
    Raises [Invalid_argument] on out-of-range values, [workers] outside
    [1 .. max_workers] included. *)

val max_workers : int
(** [2^30]: the most workers a fleet may have. {!run_virtual} packs a
    worker's events into one immediate int, the worker id in a 30-bit
    field; a larger fleet would alias workers there. *)

type result = {
  n_tasks : int;
  completed : int;  (** tasks applied exactly once; = [n_tasks] on success *)
  makespan_s : float;  (** virtual (or real) time of the last event *)
  wall_s : float;  (** real time the harness itself took *)
  server : Server.stats;
  crashed : int;  (** workers lost to the churn plan *)
  disconnects : int;
  lease_grant_p50_s : float;
      (** median time from a worker's first unanswered [Lease_req] to
          its [Lease] — 0 under no backpressure in virtual time *)
  lease_grant_p99_s : float;
  task_service_p50_s : float;  (** alloc-to-complete, per applied task *)
  task_service_p99_s : float;
  busy_s : float array;
      (** per-worker virtual time spent holding a lease batch; divided
          by [makespan_s] it is the worker's utilization, also emitted
          as the [served.worker_utilization] histogram when a live
          registry is given *)
}

val run_virtual :
  ?sink:Ic_obs.Trace.t ->
  ?live:Ic_obs.Live.t ->
  ?flight:Ic_obs.Flight.t ->
  server:Server.config ->
  config ->
  Ic_dag.Dag.t ->
  result
(** Run to completion (or to starvation, if churn killed every worker)
    under the virtual clock. [sink]/[live]/[flight] are handed to the
    embedded {!Server}; [live] also receives the harness-side
    instruments at the end of the run ([served.makespan_s],
    [served.inflight_final], [served.worker_utilization]). With a fixed
    seed {!Ic_obs.Live.to_json} of the registry and the trace are
    byte-identical across runs; the flight ring does not perturb
    either. *)

val drive : ?live:Ic_obs.Live.t -> Server.t -> config -> result
(** {!run_virtual} against an {e existing} server — the recovery
    acceptance vehicle: journal a partial drain, crash, {!Server.recover}
    the state, then [drive] the worker fleet against the recovered server
    and watch it reach exactly-once completion. [live] only receives
    the harness-side instruments ([served.makespan_s],
    [served.inflight_final], [served.worker_utilization]); pass the same
    registry to {!Server.recover} for the server's own counters. *)

(** {1 Wire chaos}

    The same worker model with every message routed through a pair of
    {!Chaos} manglers (direction 0 client-to-server, direction 1 back),
    still in virtual time: drops, duplicates, reorders, truncations and
    bit flips hit real encoded frames and the server sees whatever
    survives the {!Wire.Reader}. Workers cover for the lossy link with a
    reply timeout: an unanswered request is re-sent as a fresh frame
    (counted in [retries]), so duplicate [Lease_req]s/[Complete]s reach
    the server and its absorption paths are exercised for real. A fixed
    seed still yields byte-identical metrics. *)

type chaos_result = {
  base : result;
  c2s : Chaos.stats;
  s2c : Chaos.stats;
  retries : int;  (** requests re-sent after an unanswered timeout *)
}

val run_chaos :
  ?sink:Ic_obs.Trace.t ->
  ?live:Ic_obs.Live.t ->
  ?flight:Ic_obs.Flight.t ->
  server:Server.config ->
  wire:Ic_fault.Plan.Wire.t ->
  ?reply_timeout_s:float ->
  config ->
  Ic_dag.Dag.t ->
  chaos_result
(** [reply_timeout_s] (default 1.0, positive) is how long a worker waits
    for a reply before re-sending. With [live], the per-link
    [served.chaos.{c2s,s2c}.*] counters and [served.chaos.retries] are
    recorded alongside the usual served instruments. *)

(** {1 Worker-model internals shared with the TCP driver} *)

val service_s : config -> worker:int -> draw:int -> float
(** The [draw]-th service latency of [worker]: deterministic bounded
    Pareto with the configured mean and tail. *)

type samples
(** A growable buffer of unboxed float samples (grant and service
    latencies), read back once at the end of a run. *)

val samples : unit -> samples
val sample : samples -> float -> unit

val quantiles : samples -> float -> float -> float * float
(** [quantiles s q1 q2] is the pair of nearest-rank quantiles [q1] and
    [q2] (each in [0,1]) of the samples in [s]: the value of rank
    [int_of_float ((n-1)·q + 0.5)], clamped to [0, n-1], under
    [Float.compare] order — what sorting the [n] samples and indexing
    would return, bit for bit. [(nan, nan)] when [s] is empty. All three
    drivers report their grant and service p50/p99 through it.

    It selects in place rather than sorting: [q1] by quickselect, then
    [q2] within the side of [q1]'s rank that holds it. Expected O(n); a
    run of unproductive partition rounds falls back to sorting what is
    left, so no input costs more than O(n log n). It {e reorders} the
    recorded samples, so the buffer is not in recording order
    afterwards. *)
