(** Wavefront computations on mesh dags (Section 4).

    Two payloads: Pascal's triangle — whose dependency structure {e is} the
    out-mesh, executed under the mesh's IC-optimal wavefront schedule — and
    a classic dynamic-programming wavefront (edit distance on a rectangular
    grid with diagonal dependencies), the finite-element/vision-style
    workload family the paper motivates meshes with. *)

val pascal : int -> int array
(** [pascal levels]: the binomials [C(levels, 0..levels)], computed through
    the out-mesh under {!Ic_families.Mesh.out_schedule}. *)

(** {1 Rectangular wavefront DP} *)

val iter_grid_arcs : rows:int -> cols:int -> Ic_dag.Schedule.arcs
(** The arcs of {!grid}, cell [(i, j)] as node [i * (cols+1) + j]: for
    each cell in id order, down, right, then diagonal. The one definition
    of the grid's arcs: {!grid} builds from it and {!grid_schedule}
    validates against it. *)

val grid : rows:int -> cols:int -> Ic_dag.Dag.t
(** [(rows+1) × (cols+1)] grid; cell [(i,j)] depends on its left, upper and
    upper-left neighbours — the edit-distance table. *)

val grid_schedule : rows:int -> cols:int -> Ic_dag.Schedule.t
(** Antidiagonal wavefront order, each antidiagonal from its top row down.
    Checked against {!iter_grid_arcs}; the grid is not built. *)

val edit_distance_engine : string -> string -> int Engine.t
(** The edit-distance table of [s] and [t] on
    [grid ~rows:(String.length s) ~cols:(String.length t)]: cell
    [(i, j)] holds the distance between the first [i] characters of [s]
    and the first [j] of [t], so the last node holds the answer. *)

val edit_distance : string -> string -> int
(** Levenshtein distance: {!edit_distance_engine} run under
    {!grid_schedule}. *)

val edit_distance_reference : string -> string -> int

val pyramid_reduce : op:(int -> int -> int) -> int array -> int
(** The in-mesh (pyramid-dag) payload — "the arrays that arise in computer
    vision" (Section 4): each interior node combines its two parents, so
    the apex holds the fold of every length-2 window chain; with [op = max]
    this is the max-pooling pyramid. The input row has [n] entries
    ([n >= 1]); runs on {!Ic_families.Mesh.in_mesh} under its IC-optimal
    (duality-derived) schedule. *)
