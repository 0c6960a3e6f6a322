(** Wavefront (mesh-like) dags (Section 4, Fig. 5).

    The depth-[L] {e out-mesh} is the 2-dimensional mesh truncated along its
    diagonal: levels [0..L], level [k] holding [k+1] nodes, node [(k, j)]
    feeding [(k+1, j)] and [(k+1, j+1)]. It models wavefront computations
    (finite elements, dynamic programming, computer vision arrays). The
    {e in-mesh} (the pyramid dag of [8]) is its dual. Every out-mesh is a
    ▷-linear composition of W-dags of increasing size (Fig. 6), hence admits
    an IC-optimal schedule: the wavefront order, level by level. *)

val node : int -> int -> int
(** [node k j] is the id of position [j] of level [k] (row-major triangular
    numbering, [node 0 0 = 0]). *)

val iter_arcs : int -> Ic_dag.Schedule.arcs
(** [iter_arcs levels f] applies [f] to every arc of the depth-[levels]
    out-mesh, [(k, j) -> (k+1, j)] then [(k, j) -> (k+1, j+1)] for each
    node of levels [0 .. levels-1] in id order. It is the one definition of
    the out-mesh's arcs: {!out_mesh} builds from it and {!out_schedule}
    validates against it. *)

val out_mesh : int -> Ic_dag.Dag.t
(** [out_mesh levels]: the out-mesh with levels [0..levels]. [levels >= 0];
    [(levels+1)(levels+2)/2] nodes. *)

val in_mesh : int -> Ic_dag.Dag.t
(** The dual (pyramid) dag. *)

val out_schedule : int -> Ic_dag.Schedule.t
(** IC-optimal: levels in order, left to right within a level. Written
    straight into an array and checked against {!iter_arcs}; the dag is
    not built. *)

val in_schedule : int -> Ic_dag.Schedule.t
(** IC-optimal for the in-mesh, obtained by duality from {!out_schedule}. *)

val w_decomposition : int -> Ic_core.Compose.t * Ic_dag.Schedule.t list
(** Fig. 6: the out-mesh as the ▷-linear composition
    [W_1 ⇑ W_2 ⇑ ... ⇑ W_L] together with the blocks' IC-optimal schedules.
    The composite is isomorphic to [out_mesh levels] (tests verify this) and
    the Theorem 2.1 schedule coincides with the wavefront order. Requires
    [levels >= 1]. *)
