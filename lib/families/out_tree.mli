(** Out-trees: the "expansive" computations of Section 3.

    An out-tree is an iterated composition of Vee dags: a rooted tree with
    arcs oriented away from the root (e.g. the divide phase of
    divide-and-conquer, or the task tree of adaptive numerical integration).
    Since [V ▷ V], every out-tree is a ▷-linear composition; indeed {e every}
    schedule of an out-tree is IC-optimal. *)

type shape = Leaf | Node of shape list
(** Abstract tree shapes, used to build regular and irregular out-trees. A
    [Node] must have at least one child. *)

val complete : arity:int -> depth:int -> shape
(** The complete [arity]-ary tree of the given depth ([depth = 0] is a
    leaf). The children of a node are one shared subtree, so the shape
    takes [depth + 1] blocks however many nodes it stands for. *)

val random : Random.State.t -> max_internal:int -> arity:int -> shape
(** An irregular shape grown by repeatedly expanding a random leaf into a
    [Node] with [arity] children, [max_internal] times — the kind of
    irregular tree adaptive quadrature produces. *)

val n_nodes : shape -> int
val n_leaves : shape -> int

val dag_of_shape : shape -> Ic_dag.Dag.t
(** Pre-order numbering: node 0 is the root; leaves are the sinks. Leaves
    get ascending ids in left-to-right order among all nodes. *)

val dag : arity:int -> depth:int -> Ic_dag.Dag.t
(** [dag_of_shape (complete ~arity ~depth)]. *)

val is_out_tree : Ic_dag.Dag.t -> bool
(** Connected, single source, every other node of in-degree exactly 1. *)

val schedule : Ic_dag.Dag.t -> Ic_dag.Schedule.t
(** An IC-optimal schedule (breadth-first; any valid order would do). The
    dag must be an out-tree. *)

val schedules_all_optimal : Ic_dag.Dag.t -> bool
(** Sanity helper used in tests: do a handful of structurally different
    schedules of this out-tree share the same profile? *)
