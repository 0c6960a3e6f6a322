(** The [served] bench group: throughput and latency records for the
    lease-serving subsystem ([Ic_served]).

    It drains the sharded pools and the sans-IO server once per lease
    batch size (k = 1 vs k = 16, the lock-amortization comparison),
    prices live telemetry and the write-ahead journal (bare vs live vs
    flush-per-append vs fsync-per-append drains), and drives the server
    with the deterministic virtual hammer — a 3-shard server against
    10^4 simulated workers, once calm and once under seeded churn —
    emitting one JSON record per configuration with leases/sec and, for
    the hammer runs, p50/p99 lease latencies. Real sockets are measured
    by the end-to-end benchmark, not here.

    The group is {e not} part of the perf gate: throughput is
    machine-specific, like [par]. *)

val run : quick:bool -> emit:(string -> unit) -> unit
(** [run ~quick ~emit] benchmarks the serving subsystem, passing each
    JSON record to [emit]. [quick] shrinks the dag and the worker
    count for CI smoke runs. *)
