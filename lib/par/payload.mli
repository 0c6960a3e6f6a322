(** Real computations for the parallel runtime to chew on.

    A payload bundles a dag from the paper's families with a value
    semantics from [lib/compute] (wavefront DP, FFT, block matrix
    multiplication, quadrature; the first three are
    [Ic_compute]'s own engines, run unchanged), an IC-optimal priority
    ranking for the
    [Ic_priority] mode, a result fingerprint (a [float array] that is
    bit-identical however the tasks were interleaved — see
    {!Runtime}'s determinism note), and a self-check against an
    independent reference. The [spin_us] knob adds a calibrated
    busy-loop to every task so experiments can sweep task granularity
    from ~1 µs to ~10 ms without changing the dependence structure. *)

type t

val name : t -> string
val dag : t -> Ic_dag.Dag.t

val rank : t -> int array
(** Node priorities for {!Runtime.run}'s [Ic_priority] mode: the
    position of each node in the family's IC-optimal schedule. *)

val execute : ?executor:Ic_compute.Engine.executor -> t -> float array
(** Run the payload — sequentially by default, or under the given
    executor — and fingerprint all node values as floats. Fingerprints
    are comparable with [=] across executors and domain counts. *)

val check : t -> float array -> bool
(** Validate a fingerprint against the payload's independent reference
    (e.g. the DP recurrence, π). The FFT's outputs are checked against an
    in-place radix-2 FFT, and 16 of them against the DFT's definition,
    in [O(n log n)] time and [O(n)] memory. *)

(** {1 Constructors}

    [size] scales each family's natural knob; every constructor is
    deterministic (inputs are derived from [size], never from a global
    RNG). A [size] below 1, or past the family's bound, raises
    [Invalid_argument] before anything is allocated. *)

val wavefront : ?spin_us:float -> size:int -> unit -> t
(** Edit distance between two synthetic [size]-character strings:
    {!Ic_compute.Wavefront.edit_distance_engine} on a [size × size]
    grid, [(size+1)²] nodes (at most [Dag.max_nodes]), antidiagonal
    IC-optimal order. *)

val fft : ?spin_us:float -> size:int -> unit -> t
(** The [2^size]-point FFT on the butterfly [B_size]:
    {!Ic_compute.Fft.engine}, [(size+1)·2^size] nodes (at most
    [Dag.max_nodes]) and [2·size·2^size] arcs (at most
    [Slab.max_value]). *)

val matmul : ?spin_us:float -> size:int -> unit -> t
(** The product of two synthetic [2^size × 2^size] float matrices by one
    level of the 20-node dag [M]:
    {!Ic_compute.Matmul.engine}[ ~threshold:(2^(size-1))], eight
    independent naive block products and four sums; granularity grows
    with [size] cubed. The fingerprint holds every node's block, so
    [20·4^(size-1)] floats must fit one float array. *)

val quadrature : ?spin_us:float -> size:int -> unit -> t
(** Midpoint quadrature of [4/(1+x²)] over [0,1] — which integrates to
    π — reduced through the complete binary in-tree of depth [size]
    ([size >= 1]): [2^size] leaf evaluations, [2^(size+1) - 1] nodes. *)

val families : string list
(** [["wavefront"; "fft"; "matmul"; "quadrature"]]. *)

val make : ?spin_us:float -> family:string -> size:int -> unit -> t
(** Constructor lookup by {!families} name; [Invalid_argument] on an
    unknown family or a size the family refuses. *)
