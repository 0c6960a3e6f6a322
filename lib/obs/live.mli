(** The metrics registry: atomic counters and gauges and lock-free
    log-bucketed histograms, domain-safe and readable while the
    producers are still running.

    It is the only registry in the tree, and each event is counted in
    one place. A producer that already keeps a count in its own state
    attaches a reader over it ({!counter_reader}, {!gauge_reader}):
    [Ic_served.Server]'s [served.*] counters and gauges read the
    server's fields, so a scrape and [Server.stats] see the same
    numbers. A producer that keeps its totals per run
    ([Ic_sim.Simulator], [Ic_par.Runtime]) adds them to the counters
    once, when the run ends. Latency histograms are the one thing observed
    per event. The same registry serves a scrape endpoint mid-run and
    the dump-at-exit artifact. For a seeded single-writer run the dump
    is deterministic: counters are exact once writers stop, bucketing
    is a pure function of the value, histogram sums are integer
    nanoseconds and {!to_json} sorts by name, so identically seeded
    runs give byte-identical JSON.

    {2 Cell layout}

    A counter is one [int Atomic.t] cell plus the readers attached to
    it. Counters are written a few times per run, never per event, so
    one cell shared by every domain does not contend: {!incr} is a
    single [Atomic.fetch_and_add] from any domain. {!counter_value}
    adds the cell and the readers; it is exact once the writers are
    quiescent, and never under-counts a write that happened-before the
    read.

    A gauge is a single atomic cell holding its last write — a value
    from {!set} or a reader from {!gauge_reader}. Histograms are a
    shared array of atomic buckets, log-spaced at two buckets per
    octave (powers of two), covering ~5e-7 .. 2e3 with saturation at
    both ends; an observation is two [fetch_and_add]s (bucket + count)
    plus a fixed-point sum update, lock-free and allocation-free. The
    registry computes no quantiles: {!openmetrics} exposes the
    cumulative buckets, and a scraper takes quantiles or windows from
    them ([ic_sched top] prints the scrape with per-second rates of the
    [_total] series). *)

type t
(** A live registry: a set of named instruments. *)

val create : unit -> t
(** A fresh, empty registry. *)

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

(** {1 Read-backed instruments} *)

val counter_reader : t -> string -> (unit -> int) -> unit
(** [counter_reader l name f] attaches [f] to the counter [name]
    (registering it on first use): {!counter_value}, {!openmetrics} and
    {!to_json} add [f ()] to the counter's cell. A second reader under
    the same name is summed with the first, so a registry shared by
    several producers totals their counts, as [incr]s from each would.
    The registry keeps [f], and whatever it closes over, alive. Raises
    [Invalid_argument] if [name] is another kind of instrument. *)

val gauge_reader : t -> string -> (unit -> float) -> unit
(** [gauge_reader l name f] makes [f ()] the value of the gauge [name]
    (registering it on first use) until the next write: a later
    [gauge_reader] replaces [f], and a {!set} replaces it with a
    constant. Raises [Invalid_argument] if [name] is another kind of
    instrument.

    A reader runs on whichever thread reads the registry — the scrape
    endpoint, a dump at exit — not on the producer's. It must be safe
    there: [Ic_served.Server]'s readers are plain field loads, and its
    scrape endpoint runs in the same loop as the server. *)

(** {1 Writing} *)

val incr : counter -> int -> unit
(** [incr c n] adds [n] to [c]'s cell: one atomic RMW, safe from any
    domain. *)

val set : gauge -> float -> unit
(** Last write wins; [set] replaces a reader attached with
    {!gauge_reader}. *)

val observe : histogram -> float -> unit

(** {1 Merge-on-read} *)

val counter_value : counter -> int
(** The cell plus every attached reader's value. *)

val gauge_value : gauge -> float

type hsnap = {
  counts : int array;  (** per-bucket observation counts *)
  sum : float;  (** sum of observed values (ns-resolution fixed point) *)
  count : int;  (** total observations *)
}

val histogram_snapshot : histogram -> hsnap

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
    its occupied buckets. A non-finite gauge renders as [null], so the
    output is always standard JSON. *)
