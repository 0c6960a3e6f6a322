(** Off-heap int32 slabs: the storage primitive behind the CSR dag core.

    A slab is a [Bigarray] of 32-bit integers in C layout. Slabs live
    outside the OCaml heap, so the GC never scans them (a 10^8-entry slab
    adds zero marking work), they cost 4 bytes per entry instead of a
    boxed-word 8, and — because a [Bigarray] can view a memory-mapped
    file — a built dag can be reloaded in O(1) from a snapshot
    ({!Dag.save}/{!Dag.load}).

    Accessors exchange plain [int]s; the [int32] conversion compiles to a
    sign-extension with no boxing (verified allocation-free on both the
    Closure and flambda middle-ends). Values must fit in 32 bits: node
    ids and arc counts are bounded by {!max_value}, which every [Dag]
    constructor enforces. *)

type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
(** The representation is exposed so hot loops (Frontier, Builder) can use
    [Bigarray.Array1] primitives directly and so [Unix.map_file] views can
    be passed in as slabs. *)

val max_value : int
(** Largest value a slab entry can hold ([2^31 - 1]); also the largest
    node count and arc count a CSR dag supports. *)

val create : int -> t
(** [create len] is a fresh zero-filled slab of [len] entries. *)

val length : t -> int

val get : t -> int -> int
(** Bounds-checked read. *)

val set : t -> int -> int -> unit
(** Bounds-checked write; the value is truncated to 32 bits. *)

val unsafe_get : t -> int -> int
(** Unchecked read, for loops whose indices are proven in range. *)

val unsafe_set : t -> int -> int -> unit

val fill : t -> int -> unit
(** Set every entry. *)

val blit : t -> t -> unit
(** Copy [src] into [dst]; lengths must match. *)

val sub : t -> int -> int -> t
(** [sub s pos len] shares storage with [s] — no copy. *)

val copy : t -> t

val to_int_array : ?pos:int -> ?len:int -> t -> int array

val equal : t -> t -> bool
(** Same length and contents. *)

val sort_range : t -> lo:int -> hi:int -> unit
(** Sort entries [lo .. hi-1] ascending, in place: insertion sort for
    short runs, heapsort above that (no allocation, no recursion). *)
