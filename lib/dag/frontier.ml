(* The eligible set is a dense pool with positions: [pool.(0 .. count-1)]
   are the eligible nodes (unordered), [pos.(v)] is [v]'s index in the pool
   while eligible. Executes swap-remove from the pool and append promoted
   children, so membership updates are O(1) and the eligibility count is a
   field read.

   Executedness is encoded in [remaining]: [remaining.(v) = r >= 0] means
   [v] is unexecuted with [r] unexecuted parents (eligible iff [r = 0]);
   [remaining.(v) = -r - 1 < 0] means [v] is executed and had [r]
   unexecuted parents when it was (always 0 on the execute path; nonzero
   only for non-ideal sets given to [of_set]). Undo is a negation.

   The per-node state lives off the OCaml heap in one int32 slab
   ({!Slab.t}), like the dag's own CSR, whose successor slabs the hot
   loops read directly: [remaining] at [0 .. n-1], [pool] at [n ..] and
   [pos] at [2n ..] — 12 bytes a node, never scanned by the GC, and reads
   and writes compile to unboxed loads and stores. It is one slab, not
   three, because a Bigarray allocation (a malloc and a finalised header)
   costs about three small [Array.make]s, and searches such as
   [Batched.optimal] build a small frontier per state. Nothing needs
   zero-filling: [remaining] is written for every node, and the pool and
   positions are only read where they were written ([pos] only for pool
   members), so the pool's unused tail is never even faulted in.

   The trail records the execution order for [restore], in a slab of its
   own allocated on the first [snapshot], so pure replay consumers never
   pay for it.

   Unsafe accesses below are justified by the construction invariants:
   every node id handled comes from the dag's adjacency (so is in [0, n)),
   and the pool holds exactly [count <= n] entries. *)

module A1 = Bigarray.Array1

type t = {
  g : Dag.t;
  n : int;
  off : Slab.t;  (* CSR successor adjacency, shared with the dag *)
  dat : Slab.t;
  state : Slab.t;  (* remaining, then pool at [n], then pos at [2n] *)
  mutable trail : Slab.t;  (* [no_trail] until the first snapshot *)
  mutable floor : int;  (* n_executed when the trail was allocated *)
  mutable count : int;  (* eligible nodes = pool.(0 .. count-1) *)
  mutable n_executed : int;
}

let uninit n : Slab.t = A1.create Bigarray.int32 Bigarray.c_layout n
let no_trail = uninit 0

let dag t = t.g
let count t = t.count
let executed_count t = t.n_executed

let make_state g =
  let n = Dag.n_nodes g in
  {
    g;
    n;
    off = Dag.succ_offsets g;
    dat = Dag.succ_targets g;
    state = uninit (3 * n);
    trail = no_trail;
    floor = 0;
    count = 0;
    n_executed = 0;
  }

let create g =
  Ic_prof.Span.enter "frontier.create";
  let t = make_state g in
  let poff = Dag.pred_offsets g in
  let st = t.state and pool = t.n and pos = 2 * t.n in
  let count = ref 0 in
  for v = 0 to t.n - 1 do
    let r = Slab.unsafe_get poff (v + 1) - Slab.unsafe_get poff v in
    Slab.unsafe_set st v r;
    if r = 0 then begin
      Slab.unsafe_set st (pool + !count) v;
      Slab.unsafe_set st (pos + v) !count;
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
  let t = make_state g in
  let st = t.state and pool = n and pos = 2 * n in
  let count = ref 0 and n_executed = ref 0 in
  for v = 0 to n - 1 do
    let unmet = ref 0 in
    for i = Slab.unsafe_get poff v to Slab.unsafe_get poff (v + 1) - 1 do
      if not (Array.unsafe_get executed (Slab.unsafe_get pdat i)) then
        incr unmet
    done;
    let unmet = !unmet in
    if Array.unsafe_get executed v then begin
      Slab.unsafe_set st v (-unmet - 1);
      incr n_executed
    end
    else begin
      Slab.unsafe_set st v unmet;
      if unmet = 0 then begin
        Slab.unsafe_set st (pool + !count) v;
        Slab.unsafe_set st (pos + v) !count;
        incr count
      end
    end
  done;
  t.count <- !count;
  t.n_executed <- !n_executed;
  t.floor <- !n_executed;
  t

let in_range t v = v >= 0 && v < t.n
let is_executed t v = in_range t v && Slab.unsafe_get t.state v < 0
let is_eligible t v = in_range t v && Slab.unsafe_get t.state v = 0

let members t =
  let st = t.state and pool = t.n in
  let a = Array.make t.count 0 in
  for i = 0 to t.count - 1 do
    Array.unsafe_set a i (Slab.unsafe_get st (pool + i))
  done;
  Array.sort compare a;
  a

let to_list t = Array.to_list (members t)
let iter f t = Array.iter f (members t)

let choose t =
  if t.count = 0 then None
  else Some (Slab.unsafe_get t.state (t.n + t.count - 1))

let execute ?on_promote t v =
  if not (is_eligible t v) then
    invalid_arg
      (if in_range t v then
         if Slab.unsafe_get t.state v < 0 then
           "Frontier.execute: node already executed"
         else "Frontier.execute: node not eligible"
       else "Frontier.execute: node out of range");
  let st = t.state and pool = t.n and pos = 2 * t.n in
  (* swap-remove v from the pool *)
  let last = t.count - 1 in
  let pv = Slab.unsafe_get st (pos + v) in
  let moved = Slab.unsafe_get st (pool + last) in
  Slab.unsafe_set st (pool + pv) moved;
  Slab.unsafe_set st (pos + moved) pv;
  Slab.unsafe_set st v (-1);
  if t.trail != no_trail then Slab.unsafe_set t.trail t.n_executed v;
  t.n_executed <- t.n_executed + 1;
  let off = t.off and dat = t.dat in
  let count = ref last in
  for i = Slab.unsafe_get off v to Slab.unsafe_get off (v + 1) - 1 do
    let w = Slab.unsafe_get dat i in
    let r = Slab.unsafe_get st w - 1 in
    Slab.unsafe_set st w r;
    if r = 0 then begin
      let c = !count in
      Slab.unsafe_set st (pool + c) w;
      Slab.unsafe_set st (pos + w) c;
      count := c + 1;
      match on_promote with
      | None -> ()
      | Some f ->
        (* the callback reads a count that includes [w] *)
        t.count <- c + 1;
        f w
    end
  done;
  t.count <- !count

type snapshot = int

let snapshot t =
  if t.trail == no_trail then begin
    t.trail <- uninit t.n;
    t.floor <- t.n_executed
  end;
  t.n_executed

let restore t snap =
  if
    snap < t.floor || snap > t.n_executed
    || (snap < t.n_executed && t.trail == no_trail)
  then invalid_arg "Frontier.restore: stale snapshot";
  let st = t.state and pool = t.n and pos = 2 * t.n in
  let trail = t.trail and off = t.off and dat = t.dat in
  let count = ref t.count in
  for k = t.n_executed - 1 downto snap do
    let v = Slab.unsafe_get trail k in
    (* children of v executed after v have already been undone, so any
       child with no unexecuted parent is currently in the pool *)
    for i = Slab.unsafe_get off v to Slab.unsafe_get off (v + 1) - 1 do
      let w = Slab.unsafe_get dat i in
      let r = Slab.unsafe_get st w in
      if r = 0 then begin
        let last = !count - 1 in
        let pw = Slab.unsafe_get st (pos + w) in
        let moved = Slab.unsafe_get st (pool + last) in
        Slab.unsafe_set st (pool + pw) moved;
        Slab.unsafe_set st (pos + moved) pw;
        count := last
      end;
      Slab.unsafe_set st w (r + 1)
    done;
    let r = -Slab.unsafe_get st v - 1 in
    Slab.unsafe_set st v r;
    if r = 0 then begin
      let c = !count in
      Slab.unsafe_set st (pool + c) v;
      Slab.unsafe_set st (pos + v) c;
      count := c + 1
    end
  done;
  t.count <- !count;
  t.n_executed <- snap

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
