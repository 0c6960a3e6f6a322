(** The metrics registry: sharded counters, atomic gauges and
    lock-free log-bucketed histograms, domain-safe and readable while
    the producers are still running.

    It is the only registry in the tree. Every producer —
    [Ic_sim.Simulator], [Ic_par.Runtime], [Ic_served.Server] and its
    harnesses — records each event once, into a [Live.t]; the same
    registry serves a scrape endpoint mid-run and the dump-at-exit
    artifact. For a seeded single-writer run the dump is
    deterministic: counters are exact once writers stop, bucketing is
    a pure function of the value, histogram sums are integer
    nanoseconds and {!to_json} sorts by name, so identically seeded
    runs give byte-identical JSON.

    {2 Cell layout}

    A counter owns one [Atomic.t] cell per shard (shard count is fixed
    at registry creation and rounded up to a power of two). Writers
    increment [cells.(shard land mask)] with a single
    [Atomic.fetch_and_add]; passing the writer's domain/worker index as
    [shard] gives each domain a private cell, so the hot path never
    contends. The cells are allocated with padding objects between them
    to keep them on separate cache lines. [counter_value] merges on
    read by summing the cells; the sum is not a linearizable snapshot
    (increments can land mid-sum) but is exact once the writers are
    quiescent, and never under-counts a write that happened-before the
    read.

    Gauges are a single atomic cell (last write wins). Histograms are a
    shared array of atomic buckets, log-spaced at two buckets per
    octave (powers of two), covering ~5e-7 .. 2e3 with saturation at
    both ends; an observation is two [fetch_and_add]s (bucket + count)
    plus a fixed-point sum update, lock-free and allocation-free.
    Quantiles are reconstructed from bucket counts by geometric
    interpolation, optionally against a previous snapshot — that delta
    is the sliding-window p50/p95/p99 a scraper wants. *)

type t
(** A live registry: a set of named instruments. *)

val create : ?shards:int -> unit -> t
(** A fresh registry. [shards] (default 8, rounded up to a power of
    two) is the number of counter cells per counter — make it at least
    the number of concurrently-writing domains. *)

val shards : t -> int
(** The (rounded) shard count. *)

type counter
type gauge
type histogram

val counter : t -> string -> counter
(** The counter named [name], registering it on first use. Safe to call
    from any domain; re-registration returns the same instrument.
    Raises [Invalid_argument] if the name is already a gauge or
    histogram. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {1 Hot path} *)

val incr : counter -> shard:int -> int -> unit
(** [incr c ~shard n] adds [n] to [c]'s cell [shard land mask]. One
    atomic RMW on a cell no other domain should be writing. *)

val set : gauge -> float -> unit
val observe : histogram -> float -> unit

(** {1 Merge-on-read} *)

val counter_value : counter -> int
(** Sum of all cells. *)

val gauge_value : gauge -> float

type hsnap = {
  counts : int array;  (** per-bucket observation counts *)
  sum : float;  (** sum of observed values (ns-resolution fixed point) *)
  count : int;  (** total observations *)
}

val histogram_snapshot : histogram -> hsnap

val hsnap_sub : hsnap -> hsnap -> hsnap
(** [hsnap_sub a b] is the window [a - b]: observations recorded after
    [b] was taken. *)

val quantile : hsnap -> float -> float
(** [quantile s q] reconstructs the [q]-quantile (0 <= q <= 1) from
    bucket counts by geometric interpolation; [nan] when the snapshot
    is empty. *)

val n_buckets : int

val bucket_upper : int -> float
(** Upper bound of bucket [i] (the [le] label of the OpenMetrics
    rendering); [bucket_upper (n_buckets - 1)] is the saturation
    bucket, rendered as [+Inf]. *)

(** {1 Exposition} *)

val rss_bytes : unit -> int
(** The process's current resident set, from [/proc/self/status]
    ([VmRSS]); [0] where that file does not exist. *)

val openmetrics : ?process:bool -> t -> string
(** The registry in OpenMetrics text exposition format: counters as
    [name_total], gauges bare, histograms as cumulative
    [name_bucket{le="..."}] / [name_sum] / [name_count] families,
    terminated by [# EOF]. Metric names have ['.'] mapped to ['_'].
    Instruments render in name order. With [process] (default [true])
    the output also carries process-level gauges: RSS bytes (from
    [/proc/self/status], 0 where unavailable), GC counters from
    [Gc.quick_stat], and uptime since {!create}. *)

val to_json : t -> string
(** The registry as a JSON document:
    [{"counters": {...}, "gauges": {...}, "histograms": {...}}], names
    sorted and escaped. A histogram is
    [{"count": n, "sum": s, "buckets": [[le, cumulative], ...]}] over
    its occupied buckets. A non-finite gauge (an empty quantile, say)
    renders as [null], so the output is always standard JSON. *)
