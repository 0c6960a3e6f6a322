(** A binary min-heap with float keys: the event queue of the
    virtual-time loops ([Ic_sim.Simulator.run], [Ic_served.Hammer] and
    the due events of [Ic_served.Tcp.hammer]) and the lease-deadline heap
    of [Ic_served.Server].

    {b Cost.} Keys live unboxed in a [Float.Array.t] and values in a
    parallel array, so an entry costs two words and no block of its own,
    and a comparison is one float compare. [push] and [pop_min] take
    O(log n) and allocate nothing themselves except when [push] doubles
    the arrays (a key computed at the call site may still be boxed to be
    passed in); [min_key], [size] and [is_empty] take O(1). Pair
    [min_key] with [pop_min] to read an entry without an option or a
    tuple.

    {b Tie order.} Entries with equal keys pop in an order fixed by the
    sequence of pushes and pops alone. It is neither FIFO nor LIFO: it is
    the order of the textbook swap heap, whose strict [<] comparisons
    both sifts make in the same sequence. Seeded virtual runs depend on
    it, because it decides which of two simultaneous events fires first;
    a heap with another tie order changes their artifacts. *)

type 'v t

val create : unit -> 'v t
val is_empty : 'v t -> bool
val size : 'v t -> int
val push : 'v t -> float -> 'v -> unit

val min_key : 'v t -> float
(** The smallest key; [infinity] when the heap is empty. *)

val pop_min : 'v t -> 'v
(** Removes an entry with the smallest key and returns its value.
    @raise Invalid_argument when the heap is empty. *)
