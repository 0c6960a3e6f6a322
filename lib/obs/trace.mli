(** Structured execution traces: a low-overhead flat event buffer.

    A trace is a growable record of timestamped scheduling events — task
    allocation/start/completion/failure, client stall/resume, frontier
    push/pop, eligibility-count changes — stored column-wise in flat
    int/float arrays, so recording an event allocates nothing (amortized:
    the columns double when full). Producers take a sink as an explicit
    [?sink:Trace.t] optional argument; when no sink is installed the
    instrumentation path is a single branch per site, which keeps the
    zero-observability cost within noise (the overhead contract of
    DESIGN.md §"The observability layer").

    Timestamps are {e simulated} time (or step indices for untimed
    producers like [Ic_compute.Engine]); a trace never consults the wall
    clock, so identically seeded runs produce byte-identical traces. *)

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

val kind_name : kind -> string
(** Stable lower-snake-case name, e.g. ["task_alloc"]. *)

val kind_to_int : kind -> int
(** The stable wire integer of the kind (what {!Flight} frames and the
    columnar storage use); new kinds only ever append. *)

val kind_of_int_opt : int -> kind option
(** Inverse of {!kind_to_int}; [None] for integers no kind owns (a
    corrupt or future frame). *)

type event = { kind : kind; time : float; a : int; b : int }

type t

val create : ?capacity:int -> ?limit:int -> unit -> t
(** An empty trace. [capacity] (default 1024) presizes the columns.

    With [limit] the trace is a bounded ring: it grows normally up to
    [limit] events, then each further emission overwrites the oldest
    retained event, so a long-running serve holds the most recent
    [limit] events in constant space. Reads ({!get}, {!iter},
    {!to_array}) always present the retained events oldest-first.
    Without [limit] (the default) the trace is unbounded, which is what
    seeded offline runs want — nothing is ever dropped, and equal runs
    stay byte-identical. {!dropped} counts the overwritten events. *)

val length : t -> int
(** Number of retained events. *)

val limit : t -> int
(** The ring bound, or [0] when unbounded. *)

val dropped : t -> int
(** Events overwritten since creation (always [0] when unbounded).
    Survives {!clear}: it counts over the trace's lifetime. *)

val clear : t -> unit
(** Forget all events, keeping the column storage. *)

(** {1 Recording} *)

val emit : t -> kind -> time:float -> a:int -> b:int -> unit

(** Typed wrappers over {!emit}, one per event kind; unused payload slots
    are recorded as [0]. *)

val task_alloc : t -> time:float -> task:int -> client:int -> unit
val task_start : t -> time:float -> task:int -> client:int -> unit
val task_complete : t -> time:float -> task:int -> client:int -> unit
val task_fail : t -> time:float -> task:int -> client:int -> unit
val client_stall : t -> time:float -> client:int -> unit
val client_resume : t -> time:float -> client:int -> unit
val frontier_push : t -> time:float -> node:int -> unit
val frontier_pop : t -> time:float -> node:int -> unit
val eligible_count : t -> time:float -> count:int -> unit
val timeout_fired : t -> time:float -> task:int -> client:int -> unit
val retry_scheduled : t -> time:float -> task:int -> retry:int -> unit
val speculative_launch : t -> time:float -> task:int -> unit
val replica_cancelled : t -> time:float -> task:int -> client:int -> unit
val client_crash : t -> time:float -> client:int -> transient:bool -> unit
val client_rejoin : t -> time:float -> client:int -> unit
val frontier_depth : t -> time:float -> shard:int -> depth:int -> unit
val inflight : t -> time:float -> count:int -> unit

(** {1 Reading} *)

val get : t -> int -> event
(** The [i]-th event, in emission order. Raises [Invalid_argument] when
    out of range. *)

val iter : (event -> unit) -> t -> unit
(** Apply to every event in emission order. *)

val to_array : t -> event array

val eligibility_timeline : t -> (float * int) array
(** The [(time, count)] pairs of the {!Eligible_count} events, in
    emission order — the time-resolved eligibility curve the paper's
    temporal argument is about. *)
