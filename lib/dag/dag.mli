(** Computation-dags.

    A dag models a computation: nodes are tasks, an arc [u -> v] means task
    [v] cannot be executed before task [u] (Section 2.1 of the paper). Nodes
    are the integers [0 .. n_nodes - 1]. Values of type {!t} are immutable
    and validated at construction: no self-loops, no duplicate arcs, no
    cycles.

    The representation is CSR-native and off-heap: both successor and
    predecessor adjacency live in flat offset/data {!Slab.t} slabs
    (Bigarray-backed int32, 4 bytes per entry) built once at construction,
    so every traversal is a contiguous scan, the GC never visits the
    adjacency, and node/arc counts are bounded by {!Slab.max_value}. A
    built dag can be written to a binary snapshot and memory-mapped back in
    O(1) ({!save}/{!load}). *)

type t

(** {1 Construction} *)

(** Incremental dag construction without intermediate arc lists, with
    the same validation as {!make}. The stream itself picks one of two
    fills; both give the same dag, or the same error.

    {b Direct fill.} While every arc is in range, points forward
    ([u < v]) and comes from a source no lower than the previous arc's,
    each target is written straight into the final child CSR, row offsets
    are set as the source advances and in-degrees are counted as arcs
    arrive. Each finished row is sorted in place and checked for
    duplicates, so targets within a row may come in any order.
    {!Builder.build} then fills the parent rows in one pass and skips the
    cycle check (forward arcs cannot close a cycle). The out-mesh,
    butterfly, prefix, out-tree, wavefront-grid and bitonic-network
    generators emit such streams.

    {b Buffered fill.} The first arc that breaks a condition, or a row
    holding a duplicate, moves the arcs taken so far into a flat
    8-byte-per-arc buffer, and the rest of the stream follows them there.
    {!Builder.build} counts and scatters them into child rows, sorts
    those, and runs Kahn's algorithm only if some arc pointed backward.
    The dags composed by [Ic_core.Compose] (diamond, DLT, path
    computation) and the matrix-multiplication dag take this fill. *)
val max_nodes : int
(** The largest node count a dag can have: [Slab.max_value - 1]. *)

module Builder : sig
  type dag = t

  type t
  (** A mutable dag under construction, with a fixed node count. *)

  val create :
    ?labels:string array ->
    n:int ->
    ?hint:int ->
    unit ->
    t
  (** [create ~n ~hint ()] starts a buffer for a dag with nodes [0..n-1];
      [hint] (default 16) preallocates space for that many arcs. Raises
      [Invalid_argument] when [n] exceeds {!max_nodes} or [hint] exceeds
      {!Slab.max_value} — before anything is allocated, so a family too
      large for the CSR fails at once; a negative [n] is reported by
      {!build}.

      The fill is direct while the stream allows it, into a child slab
      sized from [hint] (4 bytes per arc), and buffered after that (8
      bytes per arc, the buffer also sized from [hint]). *)

  val add_arc : t -> int -> int -> unit
  (** [add_arc b u v] appends the arc [u -> v]. Amortized [O(1)], and
      allocation-free once [hint] has sized the fill; no error is
      reported until {!build}, except that a spent builder raises
      [Invalid_argument]. *)

  val build : t -> (dag, string) result
  (** Validate and freeze: fails with a descriptive message on a negative
      node count, label length mismatch, out-of-range endpoints or
      self-loops (the first in stream order), then duplicate arcs (the
      least), then cycles — the same message whichever fill the stream
      took. [build] spends the builder, whatever its result: a later
      {!add_arc} or [build] raises [Invalid_argument]. After a direct fill
      the dag takes the builder's slabs. *)

  val build_exn : t -> dag
  (** Like {!build} but raises [Invalid_argument] on bad input. *)
end

val make : ?labels:string array -> n:int -> arcs:(int * int) list -> unit ->
  (t, string) result
(** [make ~n ~arcs ()] builds a dag with nodes [0..n-1] and the given arcs.
    Fails with a descriptive message on out-of-range endpoints, self-loops,
    duplicate arcs, or cycles. [labels], when given, must have length [n].
    A convenience wrapper over {!Builder}. *)

val make_exn : ?labels:string array -> n:int -> arcs:(int * int) list -> unit -> t
(** Like {!make} but raises [Invalid_argument] on bad input. *)

val empty : int -> t
(** [empty n] is the dag with [n] nodes and no arcs ([n >= 0]). *)

val sum : t -> t -> t
(** [sum g1 g2] is the disjoint sum [g1 + g2]: nodes of [g2] are shifted up
    by [n_nodes g1]. *)

val dual : t -> t
(** [dual g] reverses every arc of [g] (Section 2.3.2), interchanging sources
    and sinks. Node numbering is preserved; [O(n)] — the CSR directions are
    swapped, not rebuilt. *)

val relabel : t -> string array -> t
(** [relabel g labels] replaces node labels; [Array.length labels] must equal
    [n_nodes g]. *)

(** {1 Snapshots}

    Binary snapshot of a built dag: the four CSR slabs raw (host byte
    order, with an endianness sentinel), a fixed 64-byte header, and the
    label table when present. {!load} memory-maps the slab region, so
    reloading a multi-gigabyte dag costs O(1) time and no heap — pages
    fault in lazily as the dag is traversed. *)

val save : t -> string -> (unit, string) result
(** [save g path] writes [g] to [path] (overwriting). *)

val load : string -> (t, string) result
(** [load path] maps a snapshot back as a dag. The adjacency is a private
    (copy-on-write) mapping of the file: valid as long as the value lives,
    never written back. Fails with a descriptive message on a bad magic,
    foreign byte order, or a size/offset-table mismatch; the full
    structural validation of {!Builder.build} is {e not} re-run. *)

(** {1 Accessors} *)

val n_nodes : t -> int
val n_arcs : t -> int

val n_sources : t -> int
(** Number of parentless nodes. [O(1)]. *)

val succ : t -> int -> int array
(** Children of a node, ascending, as a {e fresh} array ([O(out-degree)]
    allocation per call). Hot loops should use {!iter_succ}/{!fold_succ} or
    the raw CSR accessors instead. *)

val pred : t -> int -> int array
(** Parents counterpart of {!succ}; also allocates. *)

val iter_succ : t -> int -> (int -> unit) -> unit
(** Apply to each child, ascending. Allocation-free. *)

val iter_pred : t -> int -> (int -> unit) -> unit
(** Apply to each parent, ascending. Allocation-free. *)

val fold_succ : t -> int -> 'a -> ('a -> int -> 'a) -> 'a
(** [fold_succ g v init f] folds over children, ascending. *)

val fold_pred : t -> int -> 'a -> ('a -> int -> 'a) -> 'a
(** Parents counterpart of {!fold_succ}. *)

(** {2 Raw CSR}

    The flat adjacency slabs themselves, shared with the dag — they must
    not be mutated. Children of [v] are entries
    [succ_offsets.{v} .. succ_offsets.{v+1} - 1] of [succ_targets],
    ascending; parents likewise via [pred_offsets]/[pred_sources]. For hot
    loops (the {!Frontier} engine) that cannot afford closure calls: read
    with {!Slab.unsafe_get} or [Bigarray.Array1] primitives. *)

val succ_offsets : t -> Slab.t
(** Length [n + 1]. *)

val succ_targets : t -> Slab.t
val pred_offsets : t -> Slab.t
val pred_sources : t -> Slab.t

val in_degrees : t -> int array
(** In-degree per node as a fresh, caller-owned array. [O(n)]. *)

val iter_arcs : t -> (int -> int -> unit) -> unit
(** [iter_arcs g f] applies [f u v] to every arc in (source, target)
    lexicographic order. Allocation-free. *)

val fold_arcs : t -> 'a -> ('a -> int -> int -> 'a) -> 'a
(** [fold_arcs g init f] folds [f acc u v] over arcs in lexicographic
    order. *)

val out_degree : t -> int -> int
(** [O(1)]. *)

val in_degree : t -> int -> int
(** [O(1)]. *)

val has_arc : t -> int -> int -> bool
(** [O(log out-degree)]. *)

val label : t -> int -> string
(** Defaults to the decimal node id when no labels were supplied. *)

val has_labels : t -> bool
(** Were explicit labels supplied at construction? *)

val find_label : t -> string -> int option
(** First node carrying the given label, if any. *)

(** {1 Sources, sinks and structure} *)

val is_source : t -> int -> bool
(** Parentless. [O(1)]. *)

val is_sink : t -> int -> bool
(** Childless. [O(1)]. *)

val sources : t -> int list
val sinks : t -> int list
val nonsinks : t -> int list
val nonsources : t -> int list
val n_nonsinks : t -> int
val n_nonsources : t -> int

val topological_order : t -> int array
(** Some topological order of all nodes (sources first, Kahn's algorithm). *)

val is_connected : t -> bool
(** Connectivity of the underlying undirected graph. The empty dag ([n = 0])
    is connected; so is a single node. *)

val depth : t -> int array
(** [depth g].(v) = length of the longest arc-path from any source to [v]
    (sources have depth 0). *)

val height : t -> int array
(** [height g].(v) = length of the longest arc-path from [v] to any sink
    (sinks have height 0). *)

val longest_path : t -> int
(** Number of arcs on a longest path; 0 for an arcless dag. *)

(** {1 Transformation} *)

val map_nodes : t -> perm:int array -> t
(** [map_nodes g ~perm] renames node [v] to [perm.(v)]; [perm] must be a
    permutation of [0..n-1]. Labels follow their nodes. *)

val quotient : t -> cluster_of:int array -> n_clusters:int -> (t, string) result
(** [quotient g ~cluster_of ~n_clusters] contracts each cluster to a single
    node (cluster ids must cover [0 .. n_clusters-1]); arcs between distinct
    clusters are kept (deduplicated). Fails if the result has a cycle, i.e.
    if the clustering is not convex enough to stay acyclic. *)

val induced : t -> keep:bool array -> t * int array
(** [induced g ~keep] is the sub-dag induced by the kept nodes together with
    the map from old node ids to new ids (-1 for dropped nodes). *)

(** {1 Equality and output} *)

val equal : t -> t -> bool
(** Structural equality on the same node numbering (labels ignored). *)

val pp : Format.formatter -> t -> unit
val to_dot : t -> string
(** GraphViz rendering, for debugging and the CLI. *)
