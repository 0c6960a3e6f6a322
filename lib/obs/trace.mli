(** Structured execution traces: one event stream, kept in memory or
    persisted in a crash-surviving ring.

    A trace is a record of timestamped scheduling events — task
    allocation/start/completion/failure, client stall/resume, frontier
    push/pop, eligibility-count changes, profiling spans — with two
    stores behind the one {!emit}:

    - {!create} keeps every event, column-wise in flat int/float arrays,
      so recording allocates nothing (amortized: the columns double when
      full). This is what seeded offline runs want — nothing is dropped,
      and equal runs stay byte-identical.
    - {!recorder} is the flight recorder: a fixed-size file of [slots]
      binary frames mapped into the process with [Unix.map_file].
      Recording writes one frame in place — sequence number, timestamp,
      payload and a CRC-32 over the frame body (the journal's checksum)
      — and nothing else: no syscall, no allocation, no flush. The
      mapping is shared, so the kernel owns the dirty pages; when the
      process is killed, the frames written so far reach the file
      without its help. Recovery trusts no cursor: {!load} scans every
      slot, keeps the frames whose CRC verifies (a frame torn mid-write
      fails its CRC and is dropped), and orders them by sequence number
      — the last [slots] events before the crash, minus at most the one
      being written.

    Producers take a sink as an explicit [?sink:Trace.t] optional
    argument; when no sink is installed the instrumentation path is a
    single branch per site, which keeps the zero-observability cost
    within noise (the overhead contract of DESIGN.md §"The observability
    layer").

    Timestamps come from the producer's clock: {e simulated} time in
    [Ic_sim.Simulator] and step indices in [Ic_compute.Engine] (so
    identically seeded runs produce byte-identical traces), the caller's
    [~now] in [Ic_served.Server], and [Ic_prof.Monotonic] seconds in
    [Ic_par.Runtime]'s sink and in the trace [Ic_prof.Span] records its
    spans into. {!emit} itself never reads a clock. *)

type kind =
  | Task_alloc  (** [a] = task, [b] = client; the server allocated [a] *)
  | Task_start
      (** [a] = task, [b] = client; computation begins (allocation time
          plus the input-transfer delay, when communication is priced) *)
  | Task_complete  (** [a] = task, [b] = client *)
  | Task_fail
      (** [a] = task, [b] = client; the allocation was lost (unreliable
          client) and the task returns to the pool *)
  | Client_stall  (** [a] = client; requested work, none was eligible *)
  | Client_resume  (** [a] = client; a stalled client received work *)
  | Frontier_push  (** [a] = node; the node became ELIGIBLE *)
  | Frontier_pop  (** [a] = node; the node was executed *)
  | Eligible_count  (** [a] = new number of allocatable eligible tasks *)
  | Timeout_fired
      (** [a] = task, [b] = client; the server's liveness timeout presumed
          the attempt lost and released the task for re-allocation *)
  | Retry_scheduled
      (** [a] = task, [b] = retry number (0 = first retry); the task will
          re-enter the pool after its backoff delay *)
  | Speculative_launch
      (** [a] = task; a speculative replica of a straggling task was
          released for allocation *)
  | Replica_cancelled
      (** [a] = task, [b] = client; a redundant attempt was discarded
          because another replica's result arrived first *)
  | Client_crash
      (** [a] = client, [b] = 0 for a permanent crash, 1 for a transient
          disconnect *)
  | Client_rejoin  (** [a] = client; a disconnected client came back *)
  | Frontier_depth
      (** [a] = shard, [b] = depth; the ready pool of shard [a] held
          [b] tasks after a server [handle] — the per-shard frontier
          signal the serving stack samples live *)
  | Inflight
      (** [a] = number of leased-and-unresolved tasks after a server
          [handle] *)
  | Span_enter
      (** [a] = the span's interned name id, [b] = the number of spans
          open around it; [Ic_prof.Span] opened a profiling span *)
  | Span_leave
      (** [a] = minor-heap words, [b] = direct major-heap words
          allocated while the innermost open span ran; [Ic_prof.Span]
          closed it *)

val kind_name : kind -> string
(** Stable lower-snake-case name, e.g. ["task_alloc"]. *)

type event = { kind : kind; time : float; a : int; b : int }

type t

val create : ?capacity:int -> unit -> t
(** An empty in-memory trace, unbounded. [capacity] (default 1024)
    presizes the columns. *)

val recorder : ?slots:int -> string -> (t, string) result
(** [recorder path] opens (or creates) the flight-recorder ring at
    [path] with [slots] 40-byte frames (default 4096, a 160 KiB file;
    min 16). An
    existing file with matching magic and geometry is reopened in place:
    valid frames are kept and numbering continues after the highest of
    them, so a [--recover]ed server appends to the same ring it crashed
    with. Anything else (fresh file, wrong geometry, foreign content) is
    re-initialized to an empty ring. The ring is single-writer: it is
    owned by one domain (the serving loop). *)

val length : t -> int
(** Number of retained events: all of them in memory, the valid frames
    of a recorder. *)

val clear : t -> unit
(** Forget all events, keeping the storage (a recorder keeps its
    numbering). *)

(** {1 Recording} *)

val emit : t -> kind -> time:float -> a:int -> b:int -> unit
(** Record one event: four column cells in memory; on a recorder, one
    frame written in place (no syscall, no allocation). This is the only
    recording call: the payload slots each {!kind} documents are [a] and
    [b], and a slot the kind does not use is recorded as [0]. Producers
    ([Ic_sim.Simulator], [Ic_compute.Engine], [Ic_par.Runtime],
    [Ic_served.Server]) each wrap it in one local [emit] over their
    optional sink; [Ic_prof.Span] emits into its own trace. *)

(** {1 Reading} *)

(** Reads on a recorder decode its mapped frames through the same codec
    as {!load}: O(slots) per call, for recovery and tests rather than
    the record path. *)

val get : t -> int -> event
(** The [i]-th retained event, in emission order. Raises
    [Invalid_argument] when out of range. *)

val iter : (event -> unit) -> t -> unit
(** Apply to every event in emission order. *)

val to_array : t -> event array

val eligibility_timeline : t -> (float * int) array
(** The [(time, count)] pairs of the {!Eligible_count} events, in
    emission order — the time-resolved eligibility curve the paper's
    temporal argument is about. *)

(** {1 Recovery} *)

type frame = { seq : int; event : event }
(** A recorder slot: the event and its sequence number (first is 1). *)

type dump = {
  d_slots : int;  (** ring geometry of the file *)
  d_valid : int;  (** frames whose CRC verified *)
  events : frame array;  (** valid frames, ascending sequence order *)
}

val load : string -> (dump, string) result
(** Read and verify a recorder file without mapping or changing it. A
    frame with a sequence number no run can reach is dropped like a torn
    one. *)

val of_dump : dump -> t
(** The recovered events replayed into a fresh in-memory trace (in
    sequence order), ready for {!Exporter.chrome_trace}. *)
