(** The lease-serving state machine (sans-IO).

    A server leases eligible tasks of one [Ic_dag.Dag.t] — built in
    memory or mmap-loaded from a snapshot — to transient workers,
    exactly the client/server loop of the paper's model made concrete:
    the ELIGIBLE set is what is leasable, executing a task promotes its
    children, and the IC-quality of a schedule is how many leases the
    server can hand a burst of clients at any instant.

    The core is transport-free: {!handle} maps one client message to
    exactly one reply, {!expire} fires due lease timeouts, and the
    caller supplies time — wall-clock from the TCP driver, virtual time
    from the deterministic load harness, which is what makes identically
    seeded hammer runs byte-reproducible.

    State is sharded: [Ic_dag.Shard_view] keeps the atomic dependence
    counts, {!Shards} the per-shard pools of leasable ids, and a lease
    batch is filled from as few shards as possible so one pool visit
    amortizes over up to [max_lease] tasks. The core is single-threaded:
    nothing in it takes a lock.

    Invariants the suite asserts:
    - a task is applied (its completion propagated to successors)
      {e exactly once}: later [Complete]s for it count as duplicates and
      are acknowledged without effect;
    - a lease that outlives its expiry (from [recovery]'s liveness
      timeout, {!Ic_fault.Recovery.timeout_after}) is re-issued — the
      task returns to its shard's pool and a later completion by either
      holder is accepted;
    - the in-flight lease count never exceeds [max_inflight]: past it,
      or when eligibility runs dry, [Lease_req] is answered with
      [Retry_after] (admission control / backpressure). *)

type config = private {
  n_shards : int;
  max_lease : int;  (** cap on tasks per lease, <= {!Wire.max_lease_tasks} *)
  max_inflight : int;  (** bound on outstanding leased tasks *)
  expected_s : float;
      (** expected task service time — drives the recovery policy's
          liveness timeout *)
  retry_after_s : float;  (** backpressure hint sent with [Retry_after] *)
  recovery : Ic_fault.Recovery.t;
      (** lease-expiry policy; only [timeout_after] (and
          [detection_latency]) are consulted *)
}

val config :
  ?n_shards:int ->
  ?max_lease:int ->
  ?max_inflight:int ->
  ?expected_s:float ->
  ?retry_after_s:float ->
  ?recovery:Ic_fault.Recovery.t ->
  unit ->
  config
(** Defaults: 1 shard, [max_lease 64], [max_inflight 65536],
    [expected_s 1.0], [retry_after_s 0.01], and a recovery policy with
    [timeout_factor 4.0] (leases expire at [detection_latency + 4 *
    expected_s]). Raises [Invalid_argument] on out-of-range values. *)

type t

val create :
  ?sink:Ic_obs.Trace.t ->
  ?journal:Journal.t ->
  ?live:Ic_obs.Live.t ->
  ?flight:Ic_obs.Flight.t ->
  config ->
  Ic_dag.Dag.t ->
  t
(** [live], when given, receives the [served.*] counters (per-message
    totals and a [served.shardN.leased] count per shard), the
    [served.frontier_depth] and [served.inflight] gauges sampled after
    every [handle], and the [served.lease_service_s] latency histogram,
    all in a domain-safe {!Ic_obs.Live} registry that the scrape
    endpoint and [ic_sched top] read while the server is running; with
    the virtual clock its {!Ic_obs.Live.to_json} is byte-identical
    across identically seeded runs. [sink], when given,
    receives one [Task_alloc]/[Task_complete] pair per task and a
    [Timeout_fired] per re-issue, with the task's {e shard} as the
    client id — so the Perfetto export renders one track per shard —
    plus per-shard [Frontier_depth] and global [Inflight] counter-track
    points whenever those values move across a [handle].
    [journal], when given, makes the server durable: every lease grant
    and every applied completion is appended (the completion {e before}
    its [Ack] is produced), and the journal is compacted to a checkpoint
    every [checkpoint_every] completions. The journal must be fresh;
    raises [Invalid_argument] if it replayed prior records — that is
    {!recover}'s job.

    [flight], when given, writes every allocation, completion and
    expiry into the crash-surviving flight-recorder ring. It does not
    affect the deterministic [live] / [sink] artifacts. *)

val recover :
  ?sink:Ic_obs.Trace.t ->
  ?live:Ic_obs.Live.t ->
  ?flight:Ic_obs.Flight.t ->
  journal:Journal.t ->
  config ->
  Ic_dag.Dag.t ->
  (t, string) result
(** Rebuild a crashed server from its journal. The journal's records
    (last checkpoint + tail) are folded into the done set; done tasks
    are replayed through the dependence view, which re-derives the
    Blocked/Ready byte states exactly — so a journaled completion is
    never re-leased, while tasks that were {e leased but not journaled
    complete} at the crash return to their pools and may be granted a
    second time (counted in [stats.recovered_reissues] and the
    [served.recovered_reissues] counter; the prior holder's late
    [Complete] is absorbed as a duplicate). [stats.completions] (and the
    [served.completions] counter) are primed with the restored count, so
    a drained recovered server reports [completions = n_tasks]. The
    journal is compacted immediately and the server keeps appending to
    it. [Error] when the journal does not belong to this dag (task ids
    or checkpoint size out of range). *)

val handle : t -> now:float -> Wire.msg -> Wire.msg
(** Process one client message at time [now] (seconds, any monotone
    origin) and return the reply. Server-side messages and out-of-range
    ids are counted as protocol errors and answered with [Ack]. [now]
    must be non-decreasing across calls. Every [Retry_after] reply of
    one server is the same value, built once at creation.

    A [Lease_req] refused because every shard pool is empty — the
    gridlock case, where most requests are refused — costs O(shards):
    one size check per pool, no pops. A pool that still holds stale
    entries (tasks completed by a straggler after their lease expired)
    is drained through the normal batch fill, which moves the shard
    cursor past it. *)

val next_expiry : t -> float
(** Time at which the earliest outstanding lease expires; [infinity]
    when none (or timeouts are disabled). The driver uses it to bound
    its select/sleep. *)

val expire : t -> now:float -> int
(** Fire every lease expiry due at or before [now]: each such task
    returns to its shard's pool for re-issue. Returns how many were
    re-issued. *)

val is_done : t -> bool
val n_tasks : t -> int
val completed : t -> int

type stats = {
  leases : int;  (** [Lease] replies sent *)
  leased_tasks : int;  (** task ids handed out, re-issues included *)
  completions : int;  (** completions applied (= n when done) *)
  duplicate_completes : int;  (** [Complete]s for already-done tasks *)
  reissues : int;  (** leases expired and returned to a pool *)
  retry_afters : int;  (** backpressure replies *)
  heartbeats : int;
  protocol_errors : int;
  inflight : int;  (** currently outstanding leased tasks *)
  recovered_reissues : int;
      (** tasks found leased-but-incomplete by {!recover} and made
          leasable again; 0 for a server born with {!create} *)
  recovered_tasks : int;  (** completions restored from the journal *)
}

val stats : t -> stats

val shard_of : t -> int -> int
(** The owning shard of a task (for labelling). *)
