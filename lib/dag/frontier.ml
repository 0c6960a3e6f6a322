(* The eligible set is a dense pool with positions: [pool.(0 .. count-1)]
   are the eligible nodes (unordered), [pos.(v)] is [v]'s index in the pool
   while eligible. Executes swap-remove from the pool and append promoted
   children, so membership updates are O(1) and the eligibility count is a
   field read.

   Executedness is encoded in [remaining]: [remaining.(v) = r >= 0] means
   [v] is unexecuted with [r] unexecuted parents (eligible iff [r = 0]);
   [remaining.(v) = -r - 1 < 0] means [v] is executed and had [r]
   unexecuted parents when it was (always 0 on the execute path; nonzero
   only for non-ideal sets given to [of_set]). This keeps the per-node
   state in one cache-friendly array and makes undo a negation.

   The adjacency read in the hot loops is the dag's successor CSR slabs
   ({!Slab.t}, off-heap int32), shared with the dag — reads compile to
   unboxed loads.

   The trail records the execution order for [restore]; it is allocated on
   the first [snapshot], so pure replay consumers never pay for it.

   Unsafe accesses below are justified by the construction invariants:
   every node id handled comes from the dag's adjacency (so is in [0, n)),
   and the pool holds exactly [count <= n] entries. *)

module A1 = Bigarray.Array1

type t = {
  g : Dag.t;
  off : Slab.t;  (* CSR successor adjacency, shared with the dag *)
  dat : Slab.t;
  remaining : int array;
  pool : int array;
  pos : int array;
  mutable trail : int array;  (* [||] until the first snapshot *)
  mutable floor : int;  (* n_executed when the trail was allocated *)
  mutable count : int;  (* eligible nodes = pool.(0 .. count-1) *)
  mutable n_executed : int;
}

let dag t = t.g
let count t = t.count
let executed_count t = t.n_executed

let make_state g remaining pool count n_executed =
  {
    g;
    off = Dag.succ_offsets g;
    dat = Dag.succ_targets g;
    remaining;
    pool;
    pos = Array.make (Array.length remaining) 0;
    trail = [||];
    floor = n_executed;
    count;
    n_executed;
  }

let create g =
  Ic_prof.Span.enter "frontier.create";
  let n = Dag.n_nodes g in
  let remaining = Dag.in_degrees g in
  let pool = Array.make n 0 in
  let count = ref 0 in
  let t = make_state g remaining pool 0 0 in
  for v = 0 to n - 1 do
    if Array.unsafe_get remaining v = 0 then begin
      Array.unsafe_set pool !count v;
      Array.unsafe_set t.pos v !count;
      incr count
    end
  done;
  t.count <- !count;
  Ic_prof.Span.leave ();
  t

let of_set g ~executed =
  let n = Dag.n_nodes g in
  if Array.length executed <> n then
    invalid_arg "Frontier.of_set: length mismatch";
  let poff = Dag.pred_offsets g and pdat = Dag.pred_sources g in
  let remaining = Array.make n 0 in
  let pool = Array.make n 0 in
  let count = ref 0 and n_executed = ref 0 in
  let t = make_state g remaining pool 0 0 in
  for v = 0 to n - 1 do
    let unmet = ref 0 in
    for i = Slab.get poff v to Slab.get poff (v + 1) - 1 do
      if not executed.(Slab.unsafe_get pdat i) then incr unmet
    done;
    let unmet = !unmet in
    if executed.(v) then begin
      remaining.(v) <- -unmet - 1;
      incr n_executed
    end
    else begin
      remaining.(v) <- unmet;
      if unmet = 0 then begin
        pool.(!count) <- v;
        t.pos.(v) <- !count;
        incr count
      end
    end
  done;
  t.count <- !count;
  t.n_executed <- !n_executed;
  t.floor <- !n_executed;
  t

let in_range t v = v >= 0 && v < Array.length t.remaining
let is_executed t v = in_range t v && t.remaining.(v) < 0
let is_eligible t v = in_range t v && t.remaining.(v) = 0

let members t =
  let a = Array.sub t.pool 0 t.count in
  Array.sort compare a;
  a

let to_list t = Array.to_list (members t)
let iter f t = Array.iter f (members t)
let choose t = if t.count = 0 then None else Some t.pool.(t.count - 1)

let execute ?on_promote t v =
  if not (is_eligible t v) then
    invalid_arg
      (if in_range t v then
         if t.remaining.(v) < 0 then "Frontier.execute: node already executed"
         else "Frontier.execute: node not eligible"
       else "Frontier.execute: node out of range");
  Ic_prof.Span.enter "frontier.execute";
  (* swap-remove v from the pool *)
  let last = t.count - 1 in
  let pv = Array.unsafe_get t.pos v in
  let moved = Array.unsafe_get t.pool last in
  Array.unsafe_set t.pool pv moved;
  Array.unsafe_set t.pos moved pv;
  t.count <- last;
  Array.unsafe_set t.remaining v (-1);
  if t.trail != [||] then Array.unsafe_set t.trail t.n_executed v;
  t.n_executed <- t.n_executed + 1;
  let off = t.off and dat = t.dat in
  for i = Slab.unsafe_get off v to Slab.unsafe_get off (v + 1) - 1 do
    let w = Slab.unsafe_get dat i in
    let r = Array.unsafe_get t.remaining w - 1 in
    Array.unsafe_set t.remaining w r;
    if r = 0 then begin
      Array.unsafe_set t.pool t.count w;
      Array.unsafe_set t.pos w t.count;
      t.count <- t.count + 1;
      match on_promote with None -> () | Some f -> f w
    end
  done;
  Ic_prof.Span.leave ()

type snapshot = int

let snapshot t =
  if t.trail == [||] then begin
    t.trail <- Array.make (Array.length t.remaining) 0;
    t.floor <- t.n_executed
  end;
  t.n_executed

let restore t snap =
  if snap < t.floor || snap > t.n_executed || (snap < t.n_executed && t.trail == [||])
  then invalid_arg "Frontier.restore: stale snapshot";
  Ic_prof.Span.enter "frontier.restore";
  while t.n_executed > snap do
    let v = t.trail.(t.n_executed - 1) in
    t.n_executed <- t.n_executed - 1;
    (* children of v executed after v have already been undone, so any
       child with no unexecuted parent is currently in the pool *)
    let off = t.off and dat = t.dat in
    for i = Slab.unsafe_get off v to Slab.unsafe_get off (v + 1) - 1 do
      let w = Slab.unsafe_get dat i in
      if Array.unsafe_get t.remaining w = 0 then begin
        let last = t.count - 1 in
        let pw = Array.unsafe_get t.pos w in
        let moved = Array.unsafe_get t.pool last in
        Array.unsafe_set t.pool pw moved;
        Array.unsafe_set t.pos moved pw;
        t.count <- last
      end;
      Array.unsafe_set t.remaining w (Array.unsafe_get t.remaining w + 1)
    done;
    let r = -t.remaining.(v) - 1 in
    t.remaining.(v) <- r;
    if r = 0 then begin
      t.pool.(t.count) <- v;
      t.pos.(v) <- t.count;
      t.count <- t.count + 1
    end
  done;
  Ic_prof.Span.leave ()

(* Bulk replay: the whole profile of an execution order in one tight pass,
   without pool, position or trail upkeep. This is the hot path behind
   [Profile.run]; the order is trusted to be a schedule of [g] (which
   [Schedule.t] guarantees), like the callers it replaced.

   The remaining-parents scratch is the only per-call state besides the
   result, and it is tiered by the dag's maximum in-degree:

     - packed8   ([Bytes.t], 1 byte/node)  when every in-degree <= 255 —
       every dag of the paper's families (meshes and butterflies have
       in-degree <= 2);
     - packed16  (uint16 bigarray, 2 bytes/node, off-heap) when every
       in-degree <= 65535 — reduction trees and other wide-fan-in dags
       stay GC-invisible and cache-lean at the 10^8-node scale;
     - unpacked  (int array, 8 bytes/node) beyond that.

   [scratch_tier] is the choice, exposed so a caller can see which tier
   a dag gets without running the replay.

   [profile_raw] is the bare loop; [profile] adds the span. The raw entry
   point stays exposed so the bench harness can compare instrumented
   against truly un-instrumented code in the same process when measuring
   the disabled-path overhead. *)

type scratch_tier = Packed8 | Packed16 | Unpacked

let scratch_tier g =
  let poff = Dag.pred_offsets g in
  let n = Dag.n_nodes g in
  let max_in = ref 0 in
  for v = 0 to n - 1 do
    let d = Slab.unsafe_get poff (v + 1) - Slab.unsafe_get poff v in
    if d > !max_in then max_in := d
  done;
  if !max_in <= 255 then Packed8
  else if !max_in <= 65535 then Packed16
  else Unpacked

let fill_remaining g f =
  let poff = Dag.pred_offsets g in
  let n = Dag.n_nodes g in
  for v = 0 to n - 1 do
    f v (Slab.unsafe_get poff (v + 1) - Slab.unsafe_get poff v)
  done

let profile_raw g ~order =
  let n = Dag.n_nodes g in
  if Array.length order <> n then
    invalid_arg "Frontier.profile: order length mismatch";
  let off = Dag.succ_offsets g and dat = Dag.succ_targets g in
  let poff = Dag.pred_offsets g in
  let out = Array.make (n + 1) 0 in
  let n_sources = Dag.n_sources g in
  let count = ref n_sources in
  Array.unsafe_set out 0 n_sources;
  (* the init loops below are [fill_remaining] hand-inlined per tier:
     a closure call per node costs ~30% on mesh-256, and this is the
     gated hot path *)
  (match scratch_tier g with
  | Packed8 ->
    let remaining = Bytes.create n in
    for v = 0 to n - 1 do
      Bytes.unsafe_set remaining v
        (Char.unsafe_chr (Slab.unsafe_get poff (v + 1) - Slab.unsafe_get poff v))
    done;
    for i = 0 to n - 1 do
      let v = Array.unsafe_get order i in
      if v < 0 || v >= n then invalid_arg "Frontier.profile: node out of range";
      let c = ref (!count - 1) in
      for j = Slab.unsafe_get off v to Slab.unsafe_get off (v + 1) - 1 do
        let w = Slab.unsafe_get dat j in
        let r = Char.code (Bytes.unsafe_get remaining w) - 1 in
        Bytes.unsafe_set remaining w (Char.unsafe_chr r);
        if r = 0 then incr c
      done;
      count := !c;
      Array.unsafe_set out (i + 1) !c
    done
  | Packed16 ->
    (* uint16 bigarray: off-heap, 2 bytes/node, reads/writes are plain
       ints — no boxing on any middle-end *)
    let remaining = A1.create Bigarray.int16_unsigned Bigarray.c_layout n in
    for v = 0 to n - 1 do
      A1.unsafe_set remaining v
        (Slab.unsafe_get poff (v + 1) - Slab.unsafe_get poff v)
    done;
    for i = 0 to n - 1 do
      let v = Array.unsafe_get order i in
      if v < 0 || v >= n then invalid_arg "Frontier.profile: node out of range";
      let c = ref (!count - 1) in
      for j = Slab.unsafe_get off v to Slab.unsafe_get off (v + 1) - 1 do
        let w = Slab.unsafe_get dat j in
        let r = A1.unsafe_get remaining w - 1 in
        A1.unsafe_set remaining w r;
        if r = 0 then incr c
      done;
      count := !c;
      Array.unsafe_set out (i + 1) !c
    done
  | Unpacked ->
    let remaining = Dag.in_degrees g in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get order i in
      if v < 0 || v >= n then invalid_arg "Frontier.profile: node out of range";
      let c = ref (!count - 1) in
      for j = Slab.unsafe_get off v to Slab.unsafe_get off (v + 1) - 1 do
        let w = Slab.unsafe_get dat j in
        let r = Array.unsafe_get remaining w - 1 in
        Array.unsafe_set remaining w r;
        if r = 0 then incr c
      done;
      count := !c;
      Array.unsafe_set out (i + 1) !c
    done);
  out

let profile g ~order =
  if not (Ic_prof.Span.enabled ()) then profile_raw g ~order
  else begin
    Ic_prof.Span.enter "frontier.profile";
    match profile_raw g ~order with
    | out ->
      Ic_prof.Span.leave ();
      out
    | exception e ->
      Ic_prof.Span.leave ();
      raise e
  end
