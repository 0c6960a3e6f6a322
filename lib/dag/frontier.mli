(** Incremental eligibility tracking: the engine behind every ELIGIBLE-set
    computation in this library.

    A frontier is a mutable view of a partial execution of a dag: which nodes
    have been executed, how many parents each unexecuted node still waits
    for, and — maintained incrementally — the set of ELIGIBLE nodes (all
    parents executed, itself unexecuted). Executing a node costs
    [O(out-degree)]; the eligibility count and membership queries are
    [O(1)]. The profile machinery, the brute-force optimality verifier, the
    batched schedulers, the heuristic policies, the simulator and the value
    engine all drive their eligibility bookkeeping through this module
    rather than rebuilding remaining-parent counts by hand.

    The per-node state (remaining-parent counts, the eligible pool and
    each member's position in it) is 12 bytes a node in one off-heap
    int32 slab ({!Slab.t}), like the dag's own CSR: the GC never scans
    it, and creating a frontier and replaying a whole schedule allocates
    no OCaml heap per node.

    Frontiers also support cheap {!snapshot}/{!restore} (undo to an earlier
    point of the same execution), which turns backtracking searches over
    ideals into [execute]/[restore] pairs instead of from-scratch
    re-derivations. *)

type t

(** {1 Construction} *)

val create : Dag.t -> t
(** The frontier of the empty execution: nothing executed, the sources
    eligible. [O(n)]. *)

val of_set : Dag.t -> executed:bool array -> t
(** The frontier after executing an arbitrary node set (which need not be an
    ideal: a node with unexecuted parents is simply not eligible, executed
    or not). [O(n + m)]. Raises [Invalid_argument] on a length mismatch.
    Restoring such a frontier below its creation point is not possible. *)

(** {1 Queries} *)

val dag : t -> Dag.t

val count : t -> int
(** Number of currently eligible nodes. [O(1)]. *)

val executed_count : t -> int
(** Number of executed nodes. [O(1)]. *)

val is_eligible : t -> int -> bool
(** [O(1)]. False for out-of-range nodes. *)

val is_executed : t -> int -> bool
(** [O(1)]. False for out-of-range nodes. *)

val members : t -> int array
(** The eligible nodes in ascending node order, as a fresh array.
    [O(k log k)] for [k] eligible nodes. *)

val to_list : t -> int list
(** {!members} as a list. *)

val iter : (int -> unit) -> t -> unit
(** Apply to each eligible node in ascending node order. The callback must
    not mutate the frontier. *)

val choose : t -> int option
(** Some eligible node (unspecified which), or [None] when none is.
    [O(1)]. *)

(** {1 Execution} *)

val execute : ?on_promote:(int -> unit) -> t -> int -> unit
(** [execute t v] marks the eligible node [v] executed and promotes every
    child whose last missing parent was [v]. [on_promote] is called once per
    newly eligible child, in ascending child order. [O(out-degree v)].
    Raises [Invalid_argument] if [v] is out of range or not eligible.

    [on_promote] is the frontier's only callback, and the tracing layer
    ({!Ic_obs.Trace}) uses it too: the simulator and the value engine
    emit a [Frontier_pop] for [v] before calling [execute], and a
    [Frontier_push] from an [on_promote] they build once per run, so no
    closure is allocated per step. {!restore} and the bulk {!profile}
    pass take no callback. *)

(** {1 Undo} *)

type snapshot
(** A point in the execution history of one frontier. *)

val snapshot : t -> snapshot
(** [O(1)]. *)

val restore : t -> snapshot -> unit
(** Undo every execution performed since the snapshot was taken, restoring
    counts, membership and remaining-parent state. [O(sum of out-degrees of
    the undone nodes)]. A snapshot is invalidated by restoring past it;
    restoring a stale snapshot (or one from another frontier) raises
    [Invalid_argument]. *)

(** {1 Bulk replay} *)

val profile : Dag.t -> order:int array -> int array
(** [profile g ~order] is the eligibility count after each prefix of the
    execution order (length [n + 1]), computed in one pass with none of the
    per-node membership upkeep — the hot path behind [Profile.run]. The
    order must be a schedule of [g]; entries are range-checked but
    dependence violations are the caller's responsibility (a validated
    [Schedule.t] cannot violate them). *)

val profile_raw : Dag.t -> order:int array -> int array
(** {!profile} without its [Ic_prof] span — byte-for-byte the replay loop
    that {!profile} runs. Exists so the bench harness can measure the
    disabled-path instrumentation overhead against a genuinely
    un-instrumented body in the same process; everyone else should call
    {!profile}. *)

(** {2 Replay scratch tiers}

    The replay pass sizes its remaining-parents scratch to the dag's
    maximum in-degree: 1 byte/node up to 255 ([Packed8]), an off-heap
    uint16 bigarray up to 65535 ([Packed16]), a plain int array beyond
    ([Unpacked]). {!scratch_tier} names the tier a dag gets. *)

type scratch_tier = Packed8 | Packed16 | Unpacked
(** The remaining-parents representation a dag's maximum in-degree calls
    for: 1 byte/node up to 255, 2 off-heap bytes/node up to 65535, a
    plain int array beyond. *)

val scratch_tier : Dag.t -> scratch_tier
(** The tier {!profile} would pick for this dag — also the packing of
    {!Shard_view}'s shared atomic counts, since the tier bound is exactly
    the largest value any count can take. [O(n)] (scans the predecessor
    offsets). *)

val fill_remaining : Dag.t -> (int -> int -> unit) -> unit
(** [fill_remaining g f] calls [f v (in-degree of v)] for every node [v]
    in ascending order — the initialization loop every remaining-parents
    scratch (sequential or atomic) starts from, without materializing an
    intermediate int array. *)
