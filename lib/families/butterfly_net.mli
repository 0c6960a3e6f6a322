(** Butterfly networks [B_d] (Section 5, Figs. 9–10).

    The [d]-dimensional butterfly network has [d+1] levels of [2^d] rows;
    node [(l, r)] (level [l], row [r]) feeds [(l+1, r)] and
    [(l+1, r XOR 2^l)] for [l < d]. [B_1] is the butterfly building block
    [B]; [B_d] is an iterated composition of copies of [B] (Fig. 10), hence
    — since [B ▷ B] — a ▷-linear composition. From [23]: a schedule of such
    a composition is IC-optimal iff it executes the two sources of each copy
    of [B] in consecutive steps. The FFT dag is exactly [B_d] (Section 5.2),
    and comparator-based sorting networks are iterated compositions of [B]
    too. *)

val node : d:int -> int -> int -> int
(** [node ~d l r] is the id of row [r] of level [l]: [l * 2^d + r]. *)

val iter_arcs : int -> Ic_dag.Schedule.arcs
(** [iter_arcs d f] applies [f] to every arc of [B_d],
    [(l, r) -> (l+1, r)] then [(l, r) -> (l+1, r XOR 2^l)] for each node
    of levels [0 .. d-1] in id order. It is the one definition of
    [B_d]'s arcs: {!dag} builds from it and {!schedule} validates against
    it. *)

val dag : int -> Ic_dag.Dag.t
(** [dag d] is [B_d]; requires [d >= 1]. [(d+1) * 2^d] nodes. *)

val schedule : int -> Ic_dag.Schedule.t
(** IC-optimal: level by level; within level [l], the two sources
    [(l, r)] and [(l, r + 2^l)] of each block consecutively. Written
    straight into an array and checked against {!iter_arcs}; the dag is
    not built. Requires [d >= 1]. *)

val pairs_consecutive : int -> Ic_dag.Schedule.t -> bool
(** The iff-characterization: does the schedule execute the two sources of
    every [B]-copy of [B_d] in consecutive steps? *)

val block_decomposition : int -> Ic_core.Compose.t * Ic_dag.Schedule.t list
(** Fig. 10: [B_d] as an iterated composition of [d * 2^(d-1)] copies of the
    building block [B], level by level, with their IC-optimal schedules. The
    composite is isomorphic to [dag d]. *)
