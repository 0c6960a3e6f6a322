(** A sharded priority pool: the ready-set for the [Ic_priority] ordering
    mode.

    Where the deques give each domain plain LIFO/FIFO access, the pool
    keeps every ready task ranked by a precomputed priority (lower rank =
    earlier in the IC-optimal or heuristic order; equal ranks go to the
    lower node id). One shard — an {!Ic_heuristics.Rank_heap}, the heap
    of the rank-based [Policy]s, under a mutex — per domain: a domain
    pushes newly-ready
    tasks to its own shard and pops the lowest-rank task it can see,
    preferring its own shard and falling back to {e stealing} the best
    task of another domain's shard ([Mutex.try_lock], so a contended
    shard is skipped rather than waited on).

    This is deliberately not a single global heap: the shards trade a
    little priority fidelity (a domain may run its local rank-7 task
    while a remote shard holds rank-3) for an uncontended fast path,
    which is the same locality-vs-order trade the paper's batched
    regimens make. *)

type t

val create : shards:int -> rank:int array -> t
(** [create ~shards ~rank] makes an empty pool with [shards] shards over
    tasks ranked by [rank] (one entry per node; the array is shared, not
    copied). Raises [Invalid_argument] if [shards <= 0]. *)

val push : t -> shard:int -> int -> unit
(** Insert a task into the given shard. *)

val pop : t -> shard:int -> int option
(** Take the least [(rank, id)] task of the given shard (blocking on its
    mutex; the owner's own shard is expected to be nearly uncontended). *)

val try_steal : t -> shard:int -> int option
(** Take the least [(rank, id)] task of the given shard, or [None] without
    blocking if the shard is empty or its lock is held. *)

val size : t -> int
(** Approximate total occupancy (racy; exact when quiescent). *)
