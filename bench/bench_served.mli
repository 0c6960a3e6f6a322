(** The [served] bench group: throughput and latency records for the
    lease-serving subsystem ([Ic_served]).

    It drives the sans-IO server with the deterministic virtual hammer
    — a 3-shard server against 10^4 simulated workers, once per lease
    batch size (k = 1 vs k = 16, the lock-amortization comparison),
    once under seeded churn — prices the write-ahead journal
    (journal-off vs flush-per-append vs fsync-per-append drains), and
    then runs over real loopback TCP, emitting one JSON record per
    configuration with leases/sec and p50/p99 lease latencies.

    The group is {e not} part of the perf gate: throughput is
    machine-specific, like [par]. *)

val run : quick:bool -> emit:(string -> unit) -> unit
(** [run ~quick ~emit] benchmarks the serving subsystem, passing each
    JSON record to [emit]. [quick] shrinks the dag and the worker
    count for CI smoke runs. *)
