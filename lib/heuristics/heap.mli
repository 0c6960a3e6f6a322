(** A binary min-heap with float keys: the event queue of the
    virtual-time loops ([Ic_sim.Simulator.run], [Ic_served.Hammer] and
    the due events of [Ic_served.Tcp.hammer]) and the lease-deadline heap
    of [Ic_served.Server].

    {b Cost.} Keys live unboxed in a [Float.Array.t] and values in a
    parallel array, so an entry costs two words and no block of its own,
    and a comparison is one float compare. [push] and [pop_min] take
    O(log n) and allocate nothing themselves except when [push] doubles
    the arrays (a key computed at the call site may still be boxed to be
    passed in; {!push_after} takes it as a sum instead); [min_key],
    [size] and [is_empty] take O(1). Pair [min_key] with [pop_min] to
    read an entry without an option or a tuple.

    {b The FIFO lane.} Beside the binary heap sits a FIFO lane of keys
    and values, a growable ring of the same two-array layout. {!append}
    puts an entry there in O(1) when its key is at least the key of the
    lane's last entry, so a caller whose keys arrive in order (a
    re-request due a constant delay after a non-decreasing clock) skips
    the O(log n) sift of a heap that also holds unrelated events. An
    out-of-order [append] falls back to [push], so the structure is a
    correct priority queue for any sequence of calls. [min_key] and
    [pop_min] look at both the heap's root and the lane's head.

    {b Tie order.} Entries with equal keys pop in an order fixed by the
    sequence of pushes and pops alone. It is neither FIFO nor LIFO: it is
    the order of the textbook swap heap, whose strict [<] comparisons
    both sifts make in the same sequence. Seeded virtual runs depend on
    it, because it decides which of two simultaneous events fires first;
    a heap with another tie order changes their artifacts. Between the
    heap and the lane, a heap entry pops before a lane entry with an
    equal key; lane entries pop in FIFO order. A heap that is never
    given an [append] behaves as if the lane did not exist. *)

type 'v t

val create : unit -> 'v t
val is_empty : 'v t -> bool
val size : 'v t -> int
val push : 'v t -> float -> 'v -> unit

val push_after : 'v t -> float -> float -> 'v -> unit
(** [push_after h t d v] is [push h (t +. d) v] with the sum taken
    inside, so a caller that already holds [t] and [d] boxes no key. *)

val append : 'v t -> float -> 'v -> unit
(** [append h k v] adds the entry to the FIFO lane in amortized O(1) when
    the lane is empty or [k] is at least the lane's last key; otherwise
    it is [push h k v]. *)

val min_key : 'v t -> float
(** The smallest key; [infinity] when the heap is empty. *)

val pop_min : 'v t -> 'v
(** Removes an entry with the smallest key, from the heap or the lane,
    and returns its value.
    @raise Invalid_argument when the heap is empty. *)
