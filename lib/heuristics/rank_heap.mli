(** A binary min-heap of node ids ordered by [(rank.(v), v)]: lowest
    rank first, ties broken by the lower id. It is the ready pool of the
    rank-based {!Policy}s and of each shard of [Ic_par.Pool].

    The order is total, so the pop sequence depends only on the pushed
    ids, never on the heap's shape. An id may be pushed more than once;
    each push pops once.

    {b Cost.} Ids live in one growable [int array] and the ranks stay in
    the caller's array, shared, not copied. [push] and [pop] take
    O(log n); each sift step loads a rank once and compares ids only on a
    tie. Nothing is allocated except when [push] doubles the array and
    the option [pop] returns. Not thread-safe: [Ic_par.Pool] puts each
    heap under a mutex. *)

type t

val create : int array -> t
(** [create rank] is an empty heap over ids [0 .. Array.length rank - 1]
    keyed by [rank]. *)

val push : t -> int -> unit
(** @raise Invalid_argument if the id is outside [rank]. *)

val pop : t -> int option
(** Removes and returns the least id by [(rank, id)]; [None] when empty. *)

val size : t -> int
(** The number of pushed ids not yet popped. A read from another domain
    without the owner's lock is racy but never torn. *)
