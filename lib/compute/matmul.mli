(** Recursive matrix multiplication through the dag [M] (Section 7).

    Equation (7.1) does not invoke commutativity, so the 2×2 scheme
    multiplies [n×n] matrices by recursing on quadrants. Each recursion
    level executes the 20-node dag [M] under its IC-optimal schedule; the
    eight product tasks recurse (down to a naive base case). *)

type mat = float array array

val naive : mat -> mat -> mat
(** Reference [O(n³)] product; operands must be square and equal-size. *)

val engine : ?threshold:int -> mat -> mat -> mat Engine.t
(** One level of [M] over [a] and [b] ([n × n], [n] a power of two
    [>= 2]): each operand node holds an [n/2 × n/2] quadrant of [a]
    (nodes 0, 8, 2, 10 = A, B, C, D) or of [b] (1, 3, 9, 11 = E, F, G,
    H), each product node multiplies its two operands with {!multiply}
    [~threshold], and each sum node adds its two products. With
    [~threshold:(n/2)] every product is {!naive}. *)

val product : mat array -> mat
(** The [n × n] product assembled from the sum nodes of an {!engine}
    run's values (16, 19, 17, 18 = top-left, top-right, bottom-left,
    bottom-right). *)

val multiply : ?threshold:int -> mat -> mat -> mat
(** Recursive multiplication through [M]: {!engine} run under
    [Matmul_dag.schedule], then {!product}. Dimensions must be a power of
    two. [threshold] (default 32): switch to {!naive} below this size. *)

val random : Random.State.t -> int -> mat
val approx_equal : ?eps:float -> mat -> mat -> bool
