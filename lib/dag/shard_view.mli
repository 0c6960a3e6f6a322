(** A shard-partitioned view of a dag's eligibility frontier.

    Where {!Frontier} tracks eligibility for one sequential driver, a
    shard view splits the same bookkeeping across [n_shards] disjoint
    node partitions so independent pools (one per shard in the caller)
    can hand out eligible tasks concurrently.
    The view owns only the {e dependence} side of the state — one
    remaining-predecessor count per node, decremented with an atomic
    fetch-and-add — and reports each node that becomes eligible, tagged
    with its owning shard, through a callback. What the caller does with
    a newly eligible node (push it into a per-shard pool, lease it over a
    socket, run it on a domain) is its business; the view guarantees that
    each node is reported eligible exactly once, on the {!complete} call
    of its last outstanding predecessor, from whichever thread made it.
    It is the one concurrent dependence count: the lease server
    ([Ic_served.Server]) and the parallel runtime ([Ic_par.Runtime]) both
    complete through it. {!Frontier} stays the sequential count.

    Counts are packed by {!Frontier.scratch_tier}, whose bound is the
    largest value any count can take: 7 8-bit counts per atomic word
    when every in-degree is at most 255, 3 16-bit counts per word up to
    65535, one count per word beyond.

    Nodes are partitioned into contiguous blocks (node [v] belongs to
    shard [v / ceil (n / n_shards)]), so the families' level-ordered
    numbering keeps most arcs shard-local.

    Thread-safety: {!complete} may be called from any thread, but each
    node must be completed at most once — the caller's exactly-once
    completion logic (e.g. the served state machine's done-bitset) is
    what establishes that. The precondition protects more than the node
    itself: a second completion decrements its successors' counts below
    zero, and a packed count that goes below zero borrows from the
    neighbouring counts in its word. *)

type t

val create : ?n_shards:int -> Dag.t -> t
(** [create ~n_shards g] partitions [g] and initializes every node's
    remaining-predecessor count. [n_shards] (default 1) is clamped to
    [1 .. max 1 (n_nodes g)]. [O(n)]. *)

val dag : t -> Dag.t
val n_nodes : t -> int

val n_shards : t -> int
(** The clamped shard count actually in use. *)

val shard_of : t -> int -> int
(** Owning shard of a node; [O(1)]. Raises [Invalid_argument] out of
    range. *)

val shard_size : t -> int -> int
(** Number of nodes owned by a shard. *)

val iter_initial : t -> (shard:int -> int -> unit) -> unit
(** Apply to every initially eligible node (the dag's sources) with its
    owning shard, in ascending node order — the pool-seeding loop. *)

val complete : t -> int -> ready:(shard:int -> int -> unit) -> unit
(** [complete t v ~ready] records [v] executed and calls
    [ready ~shard u] for each successor [u] whose last remaining
    predecessor was [v] (ascending order within [v]'s successor list).
    Safe from any thread; each node must be completed at most once, and
    only after it was reported eligible. *)

val completed : t -> int
(** Number of {!complete} calls so far. [O(1)], atomic read. *)

val is_complete : t -> bool
(** Have all [n_nodes] nodes been completed? *)
