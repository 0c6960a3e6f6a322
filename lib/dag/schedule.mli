(** Schedules for computation-dags.

    A schedule is a rule for selecting which ELIGIBLE node to execute at each
    step (Section 2.2). Since eligibility only requires all parents to have
    been executed, the schedules of a dag are exactly its topological orders.
    A value of type {!t} is a validated execution order of {e all} nodes of a
    particular dag. *)

type t

val order : t -> int array
(** The execution order. Do not mutate. *)

val length : t -> int

(** {1 Validation}

    Every constructor below runs one validation core. It checks that the
    array has one entry per node, that every entry is in range, that no
    node appears twice, and that every arc goes forward. It stops at the
    first failure and reports it: the first offending entry, else the
    first backward arc in enumeration order. *)

type arcs = (int -> int -> unit) -> unit
(** An arc enumerator: [iter_arcs f] applies [f u v] to every arc
    [u -> v]. {!Dag.iter_arcs}[ g] is one; the families' closed-form
    [iter_arcs] are others. *)

val validate : n:int -> iter_arcs:arcs -> int array -> (t, string) result
(** [validate ~n ~iter_arcs a] checks [a] against the dag on nodes
    [0 .. n-1] whose arcs [iter_arcs] enumerates, without building that
    dag. It checks the same properties as {!of_array_exn}, and also that
    every enumerated arc has both endpoints in range. Takes ownership of
    [a] (no copy). Nodes are named by number in messages. *)

val validate_exn : n:int -> iter_arcs:arcs -> int array -> t
(** Like {!validate}; raises [Invalid_argument] on a bad array. *)

val of_nonsink_prefix_exn : n:int -> iter_arcs:arcs -> int array -> int -> t
(** [of_nonsink_prefix_exn ~n ~iter_arcs a k]: [a.(0 .. k-1)] is an order
    on the nonsinks. Appends the sinks, meaning the nodes that are the
    tail of no arc, in ascending order, found in one pass of [iter_arcs];
    then {!validate}s. Writes the sinks into [a.(k ..)] when [a] has
    exactly that room. Raises [Invalid_argument] on a bad order. *)

(** {2 Against a built dag}

    Thin wrappers over the same core, passing {!Dag.iter_arcs}[ g] and
    naming nodes by their labels. *)

val of_order : Dag.t -> int list -> (t, string) result
(** [of_order g nodes] validates that [nodes] is a permutation of [g]'s nodes
    in which every node appears after all of its parents. *)

val of_order_exn : Dag.t -> int list -> t
val of_array_exn : Dag.t -> int array -> t

val of_nonsink_order : Dag.t -> int list -> (t, string) result
(** [of_nonsink_order g nonsinks] builds a full schedule from an order on the
    nonsinks of [g] by appending the sinks (in ascending node order, which is
    always valid once every nonsink has been executed). This is the form in
    which the theory states its schedules: "finally execute all sinks in any
    order" (Theorem 2.1). *)

val of_nonsink_order_exn : Dag.t -> int list -> t

(** {1 Inspection} *)

val natural : Dag.t -> t
(** The topological order returned by {!Dag.topological_order}. *)

val nonsink_prefix : Dag.t -> t -> int list
(** Nonsinks of the dag in the order the schedule executes them. *)

val prefix_set : t -> int -> bool array
(** [prefix_set s t] marks the first [t] executed nodes. *)

val nonsinks_first : Dag.t -> t -> bool
(** Does the schedule execute every nonsink before any sink (the normal form
    the theory works in)? *)

val is_valid : Dag.t -> int array -> bool
(** Does this array denote a schedule of the dag? *)

val pp : Dag.t -> Format.formatter -> t -> unit
