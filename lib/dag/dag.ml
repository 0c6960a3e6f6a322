(* CSR-native dags on off-heap int32 slabs: both adjacency directions live
   in flat offset/data slabs ({!Slab.t}, Bigarray-backed) built once at
   construction. The GC never scans adjacency (a 10^8-node dag adds no
   marking work), every entry costs 4 bytes instead of a boxed word, and a
   built dag can be written to / memory-mapped back from a binary snapshot
   ([save]/[load]) in O(1).

   Invariants (established by [Builder.build], preserved by every
   constructor):
     - [soff] and [poff] have length [n + 1] with [soff.(0) = poff.(0) = 0]
       and [soff.(n) = poff.(n) = m];
     - children of [v] are [sdat.(soff.(v)) .. sdat.(soff.(v+1) - 1)],
       strictly ascending; parents likewise in [pdat]/[poff];
     - the two directions describe the same arc set, which is self-loop
       free, duplicate free, and acyclic;
     - [n_sources] counts the parentless nodes;
     - [n] and [m] fit in an int32 entry ([Slab.max_value]). *)

module A1 = Bigarray.Array1

type t = {
  n : int;
  soff : Slab.t;
  sdat : Slab.t;
  poff : Slab.t;
  pdat : Slab.t;
  labels : string array option;
  n_sources : int;
}

let n_nodes g = g.n
let n_arcs g = Slab.length g.sdat
let n_sources g = g.n_sources

let out_degree g v = Slab.get g.soff (v + 1) - Slab.get g.soff v
let in_degree g v = Slab.get g.poff (v + 1) - Slab.get g.poff v

let succ g v = Slab.to_int_array ~pos:(Slab.get g.soff v) ~len:(out_degree g v) g.sdat
let pred g v = Slab.to_int_array ~pos:(Slab.get g.poff v) ~len:(in_degree g v) g.pdat

let succ_offsets g = g.soff
let succ_targets g = g.sdat
let pred_offsets g = g.poff
let pred_sources g = g.pdat

let iter_succ g v f =
  let dat = g.sdat in
  for i = Slab.get g.soff v to Slab.get g.soff (v + 1) - 1 do
    f (Slab.unsafe_get dat i)
  done

let iter_pred g v f =
  let dat = g.pdat in
  for i = Slab.get g.poff v to Slab.get g.poff (v + 1) - 1 do
    f (Slab.unsafe_get dat i)
  done

let fold_succ g v init f =
  let dat = g.sdat in
  let acc = ref init in
  for i = Slab.get g.soff v to Slab.get g.soff (v + 1) - 1 do
    acc := f !acc (Slab.unsafe_get dat i)
  done;
  !acc

let fold_pred g v init f =
  let dat = g.pdat in
  let acc = ref init in
  for i = Slab.get g.poff v to Slab.get g.poff (v + 1) - 1 do
    acc := f !acc (Slab.unsafe_get dat i)
  done;
  !acc

let in_degrees g =
  let poff = g.poff in
  Array.init g.n (fun v -> Slab.unsafe_get poff (v + 1) - Slab.unsafe_get poff v)

let has_arc g u v =
  (* child rows are sorted, so binary search *)
  let dat = g.sdat in
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let x = Slab.unsafe_get dat mid in
      if x = v then true else if x < v then go (mid + 1) hi else go lo mid
  in
  go (Slab.get g.soff u) (Slab.get g.soff (u + 1))

let iter_arcs g f =
  let off = g.soff and dat = g.sdat in
  for u = 0 to g.n - 1 do
    for i = Slab.unsafe_get off u to Slab.unsafe_get off (u + 1) - 1 do
      f u (Slab.unsafe_get dat i)
    done
  done

let fold_arcs g init f =
  let acc = ref init in
  iter_arcs g (fun u v -> acc := f !acc u v);
  !acc

(* compatibility wrapper over {!iter_arcs}; prefer the iterators *)
let arcs g =
  let acc = ref [] in
  let off = g.soff and dat = g.sdat in
  for u = g.n - 1 downto 0 do
    for i = Slab.unsafe_get off (u + 1) - 1 downto Slab.unsafe_get off u do
      acc := (u, Slab.unsafe_get dat i) :: !acc
    done
  done;
  !acc

let label g v =
  match g.labels with
  | Some ls -> ls.(v)
  | None -> string_of_int v

let has_labels g = Option.is_some g.labels

let find_label g s =
  match g.labels with
  | None -> (try Some (int_of_string s) with _ -> None)
  | Some ls ->
    let rec go i = if i >= g.n then None else if ls.(i) = s then Some i else go (i + 1) in
    go 0

let is_source g v = in_degree g v = 0
let is_sink g v = out_degree g v = 0

let filter_nodes g p =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if p v then acc := v :: !acc
  done;
  !acc

let sources g = filter_nodes g (is_source g)
let sinks g = filter_nodes g (is_sink g)
let nonsinks g = filter_nodes g (fun v -> not (is_sink g v))
let nonsources g = filter_nodes g (fun v -> not (is_source g v))

let count_nodes g p =
  let c = ref 0 in
  for v = 0 to g.n - 1 do
    if p v then incr c
  done;
  !c

let n_nonsinks g = count_nodes g (fun v -> not (is_sink g v))
let n_nonsources g = count_nodes g (fun v -> not (is_source g v))

(* Kahn's algorithm over the successor CSR with slab scratch only: [indeg]
   (consumed) and [queue] are caller-supplied n-entry slabs, so checking a
   10^8-node dag allocates nothing on the OCaml heap. Returns the number of
   nodes drained — [n] iff acyclic. [emit] sees the nodes in a valid
   topological order. *)
let kahn_drain ~n ~soff ~sdat ~indeg ~queue ~emit =
  let head = ref 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if Slab.unsafe_get indeg v = 0 then begin
      Slab.unsafe_set queue !tail v;
      incr tail
    end
  done;
  while !head < !tail do
    let v = Slab.unsafe_get queue !head in
    incr head;
    emit v;
    for i = Slab.unsafe_get soff v to Slab.unsafe_get soff (v + 1) - 1 do
      let w = Slab.unsafe_get sdat i in
      let r = Slab.unsafe_get indeg w - 1 in
      Slab.unsafe_set indeg w r;
      if r = 0 then begin
        Slab.unsafe_set queue !tail w;
        incr tail
      end
    done
  done;
  !head

module Builder = struct
  type dag = t

  (* Arcs are buffered as raw little-endian int32 pairs in a [Bytes.t]
     (8 bytes per arc; the GC treats it as opaque, so even the in-memory
     buffer is never scanned). In streaming mode ([spill_arcs]) the buffer
     is a fixed-size chunk flushed to an unlinked temp file whenever full,
     so peak memory during construction is one chunk regardless of the
     final arc count; [build] then streams the file back in two passes. *)
  type nonrec t = {
    n : int;
    labels : string array option;
    spill_arcs : int;  (* flush threshold; [max_int] = never spill *)
    mutable buf : Bytes.t;
    mutable fill : int;  (* arcs currently in [buf] *)
    mutable spilled : int;  (* arcs already flushed to the temp file *)
    mutable file : (out_channel * in_channel) option;
  }

  let default_spill () =
    match Sys.getenv_opt "IC_BUILDER_SPILL" with
    | None -> max_int
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some k when k > 0 -> k
      | _ -> max_int)

  let create ?labels ~n ?(hint = 16) ?spill_arcs () =
    let spill_arcs =
      match spill_arcs with
      | Some k when k > 0 -> k
      | Some _ -> invalid_arg "Dag.Builder.create: spill_arcs must be positive"
      | None -> default_spill ()
    in
    let initial = max 1 (min (max 1 hint) spill_arcs) in
    {
      n;
      labels;
      spill_arcs;
      buf = Bytes.create (8 * initial);
      fill = 0;
      spilled = 0;
      file = None;
    }

  let n_pending b = b.spilled + b.fill
  let spilled b = b.spilled > 0

  (* The temp file is unlinked the moment it is created (best-effort):
     both channels keep operating on the anonymous inode, and the kernel
     reclaims it when the process exits — no cleanup obligation even on
     abnormal exit. *)
  let channels b =
    match b.file with
    | Some c -> c
    | None ->
      let path = Filename.temp_file "icdag_arcs" ".bin" in
      let oc = open_out_bin path in
      let ic = open_in_bin path in
      (try Sys.remove path with Sys_error _ -> ());
      let c = (oc, ic) in
      b.file <- Some c;
      c

  (* Out-of-int32-range endpoints saturate on store; [build]'s range check
     rejects them anyway (any id outside [0, n) with n <= Slab.max_value),
     only the value echoed in the error message saturates. The clamp
     stays on [int] so the conversion at the store is unboxed. *)
  let clamp32 x =
    if x > Slab.max_value then Slab.max_value
    else if x < -Slab.max_value - 1 then -Slab.max_value - 1
    else x

  let add_arc b u v =
    if 8 * b.fill = Bytes.length b.buf then begin
      if b.fill >= b.spill_arcs then begin
        let oc, _ = channels b in
        output oc b.buf 0 (8 * b.fill);
        b.spilled <- b.spilled + b.fill;
        b.fill <- 0
      end
      else begin
        let limit =
          if b.spill_arcs >= max_int / 8 then max_int else 8 * b.spill_arcs
        in
        let cap = max 128 (min (2 * Bytes.length b.buf) limit) in
        let nb = Bytes.create cap in
        Bytes.blit b.buf 0 nb 0 (8 * b.fill);
        b.buf <- nb
      end
    end;
    let off = 8 * b.fill in
    Bytes.set_int32_le b.buf off (Int32.of_int (clamp32 u));
    Bytes.set_int32_le b.buf (off + 4) (Int32.of_int (clamp32 v));
    b.fill <- b.fill + 1

  (* One sequential pass over every pending arc: spilled chunks streamed
     back through a bounded scratch buffer, then the in-memory tail. *)
  let iter_pending b f =
    (match b.file with
    | None -> ()
    | Some (oc, ic) ->
      flush oc;
      seek_in ic 0;
      let scratch = Bytes.create 65536 in
      let remaining = ref (8 * b.spilled) in
      while !remaining > 0 do
        let want = min !remaining (Bytes.length scratch) in
        really_input ic scratch 0 want;
        for i = 0 to (want / 8) - 1 do
          f
            (Int32.to_int (Bytes.get_int32_le scratch (8 * i)))
            (Int32.to_int (Bytes.get_int32_le scratch ((8 * i) + 4)))
        done;
        remaining := !remaining - want
      done);
    for i = 0 to b.fill - 1 do
      f
        (Int32.to_int (Bytes.get_int32_le b.buf (8 * i)))
        (Int32.to_int (Bytes.get_int32_le b.buf ((8 * i) + 4)))
    done

  (* Build both CSR directions in O(n + m) slab passes without ever
     materializing the edge list in heap memory:
       1. streaming count pass — validates endpoints/self-loops and fills
          both offset tables;
       2. streaming scatter pass — parents of each node land in [pdat]
          rows (arrival order), then each row is sorted in place (rows are
          short: insertion sort, heapsort fallback);
       3. a scan of [pdat] in (target, source) order scatters targets by
          source, which fills [sdat] rows already sorted.
     Duplicates are adjacent within the finished [sdat] rows; acyclicity
     is Kahn's algorithm over the successor CSR with slab scratch. Unlike
     the previous in-heap three-pass counting sort, no m-sized
     intermediate arc arrays exist: peak transient state is the two
     offset tables plus two n-entry scratch slabs. *)
  let build b =
    Ic_prof.Span.time "dag.build" @@ fun () ->
    let n = b.n and m = n_pending b in
    if n < 0 then Error "negative node count"
    else if n > Slab.max_value - 1 then
      Error (Printf.sprintf "node count %d exceeds the int32 CSR limit" n)
    else if m > Slab.max_value then
      Error (Printf.sprintf "arc count %d exceeds the int32 CSR limit" m)
    else
      match b.labels with
      | Some ls when Array.length ls <> n ->
        Error
          (Printf.sprintf "labels length %d does not match node count %d"
             (Array.length ls) n)
      | _ ->
        let soff = Slab.create (n + 1) in
        let poff = Slab.create (n + 1) in
        let bad_endpoint = ref None and self_loop = ref None in
        Ic_prof.Span.time "dag.build.validate" (fun () ->
            iter_pending b (fun u v ->
                if u < 0 || u >= n || v < 0 || v >= n then begin
                  if !bad_endpoint = None then bad_endpoint := Some (u, v)
                end
                else if u = v then begin
                  if !self_loop = None then self_loop := Some u
                end
                else begin
                  Slab.unsafe_set soff (u + 1) (Slab.unsafe_get soff (u + 1) + 1);
                  Slab.unsafe_set poff (v + 1) (Slab.unsafe_get poff (v + 1) + 1)
                end));
        (match (!bad_endpoint, !self_loop) with
        | Some (u, v), _ ->
          Error (Printf.sprintf "arc (%d -> %d) out of range [0, %d)" u v n)
        | None, Some u -> Error (Printf.sprintf "self-loop on node %d" u)
        | None, None ->
          for v = 0 to n - 1 do
            Slab.unsafe_set soff (v + 1)
              (Slab.unsafe_get soff (v + 1) + Slab.unsafe_get soff v);
            Slab.unsafe_set poff (v + 1)
              (Slab.unsafe_get poff (v + 1) + Slab.unsafe_get poff v)
          done;
          let fill = Slab.create n in
          let pdat = Slab.create m in
          Ic_prof.Span.time "dag.build.sort" (fun () ->
              (* scatter parents by target, then sort each row *)
              for v = 0 to n - 1 do
                Slab.unsafe_set fill v (Slab.unsafe_get poff v)
              done;
              iter_pending b (fun u v ->
                  let p = Slab.unsafe_get fill v in
                  Slab.unsafe_set fill v (p + 1);
                  Slab.unsafe_set pdat p u);
              for v = 0 to n - 1 do
                Slab.sort_range pdat ~lo:(Slab.unsafe_get poff v)
                  ~hi:(Slab.unsafe_get poff (v + 1))
              done);
          let sdat = Slab.create m in
          Ic_prof.Span.time "dag.build.scatter" (fun () ->
              (* pdat in (target, source) order scatters into sorted sdat
                 rows: for a fixed source the targets arrive ascending *)
              for v = 0 to n - 1 do
                Slab.unsafe_set fill v (Slab.unsafe_get soff v)
              done;
              for v = 0 to n - 1 do
                for i = Slab.unsafe_get poff v to Slab.unsafe_get poff (v + 1) - 1 do
                  let u = Slab.unsafe_get pdat i in
                  let p = Slab.unsafe_get fill u in
                  Slab.unsafe_set fill u (p + 1);
                  Slab.unsafe_set sdat p v
                done
              done);
          (* duplicates are adjacent within a row *)
          let dup = ref None in
          for u = 0 to n - 1 do
            for i = Slab.unsafe_get soff u + 1 to Slab.unsafe_get soff (u + 1) - 1 do
              if
                !dup = None
                && Slab.unsafe_get sdat i = Slab.unsafe_get sdat (i - 1)
              then dup := Some (u, Slab.unsafe_get sdat i)
            done
          done;
          (match !dup with
          | Some (u, v) -> Error (Printf.sprintf "duplicate arc (%d -> %d)" u v)
          | None ->
            let n_sources = ref 0 in
            for v = 0 to n - 1 do
              let d = Slab.unsafe_get poff (v + 1) - Slab.unsafe_get poff v in
              Slab.unsafe_set fill v d;
              if d = 0 then incr n_sources
            done;
            let queue = Slab.create n in
            let drained =
              Ic_prof.Span.time "dag.build.acyclic" (fun () ->
                  kahn_drain ~n ~soff ~sdat ~indeg:fill ~queue ~emit:ignore)
            in
            if drained <> n then Error "graph has a cycle"
            else
              Ok
                {
                  n;
                  soff;
                  sdat;
                  poff;
                  pdat;
                  labels = b.labels;
                  n_sources = !n_sources;
                }))

  let build_exn b =
    match build b with
    | Ok g -> g
    | Error msg -> invalid_arg ("Dag.Builder.build_exn: " ^ msg)
end

let make ?labels ~n ~arcs () =
  let b = Builder.create ?labels ~n ~hint:(List.length arcs) () in
  List.iter (fun (u, v) -> Builder.add_arc b u v) arcs;
  Builder.build b

let make_exn ?labels ~n ~arcs () =
  match make ?labels ~n ~arcs () with
  | Ok g -> g
  | Error msg -> invalid_arg ("Dag.make_exn: " ^ msg)

let empty n =
  if n < 0 then invalid_arg "Dag.empty: negative node count";
  {
    n;
    soff = Slab.create (n + 1);
    sdat = Slab.create 0;
    poff = Slab.create (n + 1);
    pdat = Slab.create 0;
    labels = None;
    n_sources = n;
  }

let sum g1 g2 =
  let shift = g1.n and mshift = n_arcs g1 in
  let n = g1.n + g2.n in
  let cat_off o1 o2 =
    let out = Slab.create (n + 1) in
    for v = 0 to g1.n do
      Slab.unsafe_set out v (Slab.unsafe_get o1 v)
    done;
    for v = 1 to g2.n do
      Slab.unsafe_set out (g1.n + v) (Slab.unsafe_get o2 v + mshift)
    done;
    out
  in
  let cat_dat d1 d2 =
    let m1 = Slab.length d1 and m2 = Slab.length d2 in
    let out = Slab.create (m1 + m2) in
    if m1 > 0 then Slab.blit d1 (Slab.sub out 0 m1);
    for i = 0 to m2 - 1 do
      Slab.unsafe_set out (m1 + i) (Slab.unsafe_get d2 i + shift)
    done;
    out
  in
  let labels =
    match (g1.labels, g2.labels) with
    | None, None -> None
    | _ ->
      let l1 = match g1.labels with Some l -> l | None -> Array.init g1.n string_of_int in
      let l2 = match g2.labels with Some l -> l | None -> Array.init g2.n string_of_int in
      Some (Array.append l1 l2)
  in
  {
    n;
    soff = cat_off g1.soff g2.soff;
    sdat = cat_dat g1.sdat g2.sdat;
    poff = cat_off g1.poff g2.poff;
    pdat = cat_dat g1.pdat g2.pdat;
    labels;
    n_sources = g1.n_sources + g2.n_sources;
  }

let dual g =
  let n_sources = count_nodes g (is_sink g) in
  {
    g with
    soff = g.poff;
    sdat = g.pdat;
    poff = g.soff;
    pdat = g.sdat;
    n_sources;
  }

let relabel g labels =
  if Array.length labels <> g.n then invalid_arg "Dag.relabel: length mismatch";
  { g with labels = Some (Array.copy labels) }

let topological_order g =
  let n = g.n in
  let indeg = Slab.create n in
  for v = 0 to n - 1 do
    Slab.unsafe_set indeg v (Slab.unsafe_get g.poff (v + 1) - Slab.unsafe_get g.poff v)
  done;
  let queue = Slab.create n in
  let order = Array.make n (-1) in
  let k = ref 0 in
  let drained =
    kahn_drain ~n ~soff:g.soff ~sdat:g.sdat ~indeg ~queue ~emit:(fun v ->
        Array.unsafe_set order !k v;
        incr k)
  in
  assert (drained = n) (* acyclicity is a construction invariant *);
  order

let is_connected g =
  if g.n = 0 then true
  else begin
    let seen = Bytes.make g.n '\000' in
    let stack = Stack.create () in
    Stack.push 0 stack;
    Bytes.set seen 0 '\001';
    let count = ref 1 in
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      let visit w =
        if Bytes.unsafe_get seen w = '\000' then begin
          Bytes.unsafe_set seen w '\001';
          incr count;
          Stack.push w stack
        end
      in
      iter_succ g v visit;
      iter_pred g v visit
    done;
    !count = g.n
  end

let depth g =
  let order = topological_order g in
  let d = Array.make g.n 0 in
  Array.iter
    (fun v ->
      iter_succ g v (fun w -> if d.(v) + 1 > d.(w) then d.(w) <- d.(v) + 1))
    order;
  d

let height g =
  let order = topological_order g in
  let h = Array.make g.n 0 in
  for i = g.n - 1 downto 0 do
    let v = order.(i) in
    iter_succ g v (fun w -> if h.(w) + 1 > h.(v) then h.(v) <- h.(w) + 1)
  done;
  h

let longest_path g =
  if g.n = 0 then 0 else Array.fold_left max 0 (depth g)

let map_nodes g ~perm =
  if Array.length perm <> g.n then invalid_arg "Dag.map_nodes: length mismatch";
  let seen = Array.make g.n false in
  Array.iter
    (fun p ->
      if p < 0 || p >= g.n || seen.(p) then invalid_arg "Dag.map_nodes: not a permutation";
      seen.(p) <- true)
    perm;
  let labels =
    Option.map
      (fun ls ->
        let out = Array.make g.n "" in
        Array.iteri (fun v l -> out.(perm.(v)) <- l) ls;
        out)
      g.labels
  in
  let b = Builder.create ?labels ~n:g.n ~hint:(n_arcs g) () in
  iter_arcs g (fun u v -> Builder.add_arc b perm.(u) perm.(v));
  Builder.build_exn b

let quotient g ~cluster_of ~n_clusters =
  if Array.length cluster_of <> g.n then Error "cluster_of length mismatch"
  else if Array.exists (fun c -> c < 0 || c >= n_clusters) cluster_of then
    Error "cluster id out of range"
  else begin
    let tbl = Hashtbl.create (n_arcs g) in
    let b = Builder.create ~n:n_clusters ~hint:(n_arcs g) () in
    iter_arcs g (fun u v ->
        let cu = cluster_of.(u) and cv = cluster_of.(v) in
        if cu <> cv && not (Hashtbl.mem tbl (cu, cv)) then begin
          Hashtbl.add tbl (cu, cv) ();
          Builder.add_arc b cu cv
        end);
    match Builder.build b with
    | Ok q -> Ok q
    | Error msg -> Error ("quotient is not a dag: " ^ msg)
  end

let induced g ~keep =
  if Array.length keep <> g.n then invalid_arg "Dag.induced: length mismatch";
  let remap = Array.make g.n (-1) in
  let k = ref 0 in
  for v = 0 to g.n - 1 do
    if keep.(v) then begin
      remap.(v) <- !k;
      incr k
    end
  done;
  let labels =
    Option.map
      (fun ls ->
        let out = Array.make !k "" in
        Array.iteri (fun v l -> if keep.(v) then out.(remap.(v)) <- l) ls;
        out)
      g.labels
  in
  let b = Builder.create ?labels ~n:!k ~hint:(n_arcs g) () in
  iter_arcs g (fun u v ->
      if keep.(u) && keep.(v) then Builder.add_arc b remap.(u) remap.(v));
  (Builder.build_exn b, remap)

let equal g1 g2 =
  g1.n = g2.n && Slab.equal g1.soff g2.soff && Slab.equal g1.sdat g2.sdat

let pp ppf g =
  Format.fprintf ppf "@[<v>dag with %d nodes, %d arcs@," g.n (n_arcs g);
  iter_arcs g (fun u v ->
      Format.fprintf ppf "  %s -> %s@," (label g u) (label g v));
  Format.fprintf ppf "@]"

let to_dot g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph G {\n  rankdir=BT;\n";
  for v = 0 to g.n - 1 do
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v (label g v))
  done;
  iter_arcs g (fun u v ->
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" u v));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --------------------------------------------------------- snapshots -- *)

(* Binary snapshot layout (host byte order for the slabs, little-endian
   header fields, an endianness sentinel guarding the mismatch case):

     offset  0  magic "ICDAGS01"                      (8 bytes)
     offset  8  n          as int64 LE
     offset 16  m          as int64 LE
     offset 24  n_sources  as int64 LE
     offset 32  label_bytes as int64 LE  (0 = unlabelled)
     offset 40  0x01020304 as int32 native-endian (endianness sentinel)
     offset 44  zero padding to 64
     offset 64  soff   (n+1 int32)  ┐ the four slabs, back to back —
                sdat   (m   int32)  │ [load] maps this whole region and
                poff   (n+1 int32)  │ takes O(1) sub-slab views, so
                pdat   (m   int32)  ┘ reload cost is independent of size
     then       label blob: per node, int32 LE byte length + bytes

   The header offset (64) is int32-aligned, so the slab region can be
   mapped directly as an int32 bigarray. *)

let snapshot_magic = "ICDAGS01"
let snapshot_header_bytes = 64
let endian_sentinel = 0x01020304l

let label_blob g =
  match g.labels with
  | None -> Bytes.create 0
  | Some ls ->
    let buf = Buffer.create 256 in
    Array.iter
      (fun l ->
        let len = Bytes.create 4 in
        Bytes.set_int32_le len 0 (Int32.of_int (String.length l));
        Buffer.add_bytes buf len;
        Buffer.add_string buf l)
      ls;
    Buffer.to_bytes buf

let write_all fd bytes =
  let len = Bytes.length bytes in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd bytes !written (len - !written)
  done

let read_all fd bytes =
  let len = Bytes.length bytes in
  let got = ref 0 in
  let eof = ref false in
  while !got < len && not !eof do
    let k = Unix.read fd bytes !got (len - !got) in
    if k = 0 then eof := true else got := !got + k
  done;
  !got = len

let map_int32 fd ~pos ~len ~shared =
  Bigarray.array1_of_genarray
    (Unix.map_file fd ~pos:(Int64.of_int pos) Bigarray.int32 Bigarray.c_layout
       shared [| len |])

let save g path =
  Ic_prof.Span.time "dag.save" @@ fun () ->
  let n = g.n and m = n_arcs g in
  let blob = label_blob g in
  let slab_entries = (2 * (n + 1)) + (2 * m) in
  let total =
    snapshot_header_bytes + (4 * slab_entries) + Bytes.length blob
  in
  match
    let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let header = Bytes.make snapshot_header_bytes '\000' in
        Bytes.blit_string snapshot_magic 0 header 0 8;
        Bytes.set_int64_le header 8 (Int64.of_int n);
        Bytes.set_int64_le header 16 (Int64.of_int m);
        Bytes.set_int64_le header 24 (Int64.of_int g.n_sources);
        Bytes.set_int64_le header 32 (Int64.of_int (Bytes.length blob));
        Bytes.set_int32_ne header 40 endian_sentinel;
        write_all fd header;
        if slab_entries > 0 then begin
          let region =
            map_int32 fd ~pos:snapshot_header_bytes ~len:slab_entries
              ~shared:true
          in
          let pos = ref 0 in
          let put s =
            let len = Slab.length s in
            if len > 0 then Slab.blit s (Slab.sub region !pos len);
            pos := !pos + len
          in
          put g.soff;
          put g.sdat;
          put g.poff;
          put g.pdat
        end;
        if Bytes.length blob > 0 then begin
          ignore
            (Unix.lseek fd
               (snapshot_header_bytes + (4 * slab_entries))
               Unix.SEEK_SET);
          write_all fd blob
        end
        else
          (* the mapping may outlive the fd; make sure the file has its
             full size even when the last slab is empty *)
          Unix.ftruncate fd total)
  with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | exception Sys_error msg -> Error msg

let parse_labels blob n =
  let len = Bytes.length blob in
  let pos = ref 0 in
  match
    Array.init n (fun _ ->
        if !pos + 4 > len then raise Exit;
        let k = Int32.to_int (Bytes.get_int32_le blob !pos) in
        if k < 0 || !pos + 4 + k > len then raise Exit;
        let s = Bytes.sub_string blob (!pos + 4) k in
        pos := !pos + 4 + k;
        s)
  with
  | ls when !pos = len -> Some ls
  | _ -> None
  | exception Exit -> None

let load path =
  Ic_prof.Span.time "dag.load" @@ fun () ->
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        if size < snapshot_header_bytes then Error "truncated snapshot header"
        else begin
          let header = Bytes.create snapshot_header_bytes in
          if not (read_all fd header) then Error "truncated snapshot header"
          else if Bytes.sub_string header 0 8 <> snapshot_magic then
            Error "not an ic-dag snapshot (bad magic)"
          else if Bytes.get_int32_ne header 40 <> endian_sentinel then
            Error "snapshot was written on a machine with different byte order"
          else begin
            let geti off =
              let x = Bytes.get_int64_le header off in
              if Int64.compare x 0L < 0 || Int64.compare x (Int64.of_int Slab.max_value) > 0
              then -1
              else Int64.to_int x
            in
            let n = geti 8 and m = geti 16 in
            let n_sources = geti 24 and label_bytes = geti 32 in
            if n < 0 || m < 0 || label_bytes < 0 || n_sources < 0 || n_sources > n
            then Error "corrupt snapshot header"
            else begin
              let slab_entries = (2 * (n + 1)) + (2 * m) in
              let expected =
                snapshot_header_bytes + (4 * slab_entries) + label_bytes
              in
              if size <> expected then
                Error
                  (Printf.sprintf "snapshot size mismatch (%d bytes, want %d)"
                     size expected)
              else begin
                let region =
                  map_int32 fd ~pos:snapshot_header_bytes ~len:slab_entries
                    ~shared:false
                in
                let soff = Slab.sub region 0 (n + 1) in
                let sdat = Slab.sub region (n + 1) m in
                let poff = Slab.sub region (n + 1 + m) (n + 1) in
                let pdat = Slab.sub region ((2 * (n + 1)) + m) m in
                if
                  Slab.get soff 0 <> 0
                  || Slab.get soff n <> m
                  || Slab.get poff 0 <> 0
                  || Slab.get poff n <> m
                then Error "corrupt snapshot (offset tables)"
                else begin
                  let labels =
                    if label_bytes = 0 then Ok None
                    else begin
                      ignore
                        (Unix.lseek fd
                           (snapshot_header_bytes + (4 * slab_entries))
                           Unix.SEEK_SET);
                      let blob = Bytes.create label_bytes in
                      if not (read_all fd blob) then Error "truncated labels"
                      else
                        match parse_labels blob n with
                        | Some ls -> Ok (Some ls)
                        | None -> Error "corrupt snapshot (label blob)"
                    end
                  in
                  match labels with
                  | Error e -> Error e
                  | Ok labels ->
                    Ok { n; soff; sdat; poff; pdat; labels; n_sources }
                end
              end
            end
          end
        end)
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | exception Sys_error msg -> Error msg
