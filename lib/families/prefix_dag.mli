(** Parallel-prefix (scan) dags [P_n] (Section 6.1, Figs. 11–12).

    For an associative operation [*], the [n]-input parallel-prefix dag
    implements [y_i = x_1 * ... * x_i] in [⌈log₂ n⌉] combining levels:
    level [j+1] computes [x_i ← x_{i-2^j} * x_i] for [i ≥ 2^j] and copies
    [x_i] through for [i < 2^j]. Copy steps are tasks too (see DESIGN.md):
    with them, the boundary between consecutive levels decomposes into
    interleaved N-dags (columns grouped by residue mod [2^j]), giving the
    Fig. 12 decomposition [P_8 = N_8 ⇑ N_4 ⇑ N_4 ⇑ N_2 ⇑ N_2 ⇑ N_2 ⇑ N_2].
    Since [N_s ▷ N_t] for all [s, t], every [P_n] is a ▷-linear composition;
    executing the constituent N-dags one after another (anchor first within
    each) is IC-optimal. *)

val levels : int -> int
(** [⌈log₂ n⌉]: number of combining levels. *)

val node : n:int -> int -> int -> int
(** [node ~n j i] is the id of column [i] at level [j]: [j * n + i]. Level 0
    holds the inputs; level [levels n] the outputs. *)

val iter_arcs : int -> Ic_dag.Schedule.arcs
(** [iter_arcs n f] applies [f] to every arc of [P_n]: for each node
    [(j, i)] of levels [0 .. levels n - 1] in id order, the copy arc
    [(j, i) -> (j+1, i)] then, when [i + 2^j < n], the combine arc
    [(j, i) -> (j+1, i + 2^j)]. It is the one definition of [P_n]'s arcs:
    {!dag} builds from it and {!schedule} validates against it. Requires
    [n >= 1]. *)

val dag : int -> Ic_dag.Dag.t
(** [dag n] is [P_n]; requires [n >= 1]. [(levels n + 1) * n] nodes. *)

val schedule : int -> Ic_dag.Schedule.t
(** IC-optimal: for each level [j] in order, the N-dags of boundary [j]
    (column-residues [0 .. 2^j − 1]) one after another, each N-dag's
    sources from its anchor (smallest column) rightward. Written straight
    into an array and checked against {!iter_arcs}; the dag is not
    built. *)

type decomposition = {
  compose : Ic_core.Compose.t;
  schedules : Ic_dag.Schedule.t list;
  pos : int array array;
      (** [pos.(j).(i)]: composite id of column [i] at level [j] *)
}

val n_decomposition : int -> decomposition
(** Fig. 12: [P_n] as the ▷-linear composition of its boundary N-dags, with
    their IC-optimal schedules. Isomorphic to [dag n]. Requires [n >= 2]. *)

val combines : int -> (int * int * int) list
(** [(target, left, right)] triples: at each combining node [target],
    [value(target) = value(left) * value(right)] where [left] is the column
    [2^j] to the left. Copy nodes are not listed; payload execution treats
    them as identity. Used by the compute layer. *)
