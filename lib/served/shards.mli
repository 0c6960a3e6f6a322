(** Per-shard eligibility pools: the id half of the sharded frontier.

    [Ic_dag.Shard_view] owns the dependence counts; this module owns the
    disjoint pools of currently leasable task ids, one LIFO stack per
    shard. {!pop_batch} hands back up to [max] tasks of one shard in a
    single call, so a lease of k tasks costs one pool visit instead of
    k — the amortization the served bench measures (k=16 vs k=1).

    {b Single writer.} There is no lock. Every call must come from the
    one thread of control that owns the pools — the {!Server} core, which
    is single-threaded by design. Concurrent callers need their own
    mutual exclusion around the whole server, not around the pools.

    Entries are plain ints and the pools are oblivious to task state;
    the server layers lazy invalidation on top (an entry whose task is
    no longer Ready is discarded after the pop). *)

type t

val create : n_shards:int -> unit -> t
(** [n_shards >= 1] empty pools. *)

val n_shards : t -> int

val push : t -> shard:int -> int -> unit
(** Append a task id to a shard's pool; amortized O(1). *)

val pop_batch : t -> shard:int -> max:int -> int array -> int
(** [pop_batch t ~shard ~max out] moves up to [max] ids from the shard's
    pool into [out.(0 ..)], newest first, in one call; returns how many.
    [max <= Array.length out]. *)

val size : t -> shard:int -> int
(** Current pool depth, including entries awaiting lazy invalidation. *)

val total : t -> int
(** Sum of {!size} over shards. *)
