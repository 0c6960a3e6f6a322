(* Remaining-predecessor counts, decremented with fetch-and-add.

   The packing reuses the Frontier's scratch-tier rule: the tier bound is
   the largest value any count can take, so several counts share one
   atomic word — 7 8-bit fields per word under [Packed8], 3 16-bit fields
   under [Packed16] (OCaml ints are 63-bit, hence 7 and 3 rather than 8
   and 4), one count per word under [Unpacked]. A field decrement is
   [fetch_and_add word (-(1 lsl shift))]: fields never underflow in a
   correct run (each is decremented exactly in-degree times), so no
   borrow ever crosses a field boundary, and the returned old word tells
   the caller — uniquely, since exactly one decrement observes old field
   value 1 — whether it made the node ready. *)
type t = {
  dag : Dag.t;
  n_shards : int;
  block : int;  (* nodes per shard: shard of v = v / block *)
  words : int Atomic.t array;
  per_word : int;
  bits : int;
  mask : int;
  done_count : int Atomic.t;
}

let layout = function
  | Frontier.Packed8 -> (7, 8, 0xff)
  | Frontier.Packed16 -> (3, 16, 0xffff)
  | Frontier.Unpacked -> (1, 0, -1)

let create ?(n_shards = 1) g =
  let n = Dag.n_nodes g in
  let n_shards = max 1 (min n_shards (max 1 n)) in
  let block = if n = 0 then 1 else ((n - 1) / n_shards) + 1 in
  let per_word, bits, mask = layout (Frontier.scratch_tier g) in
  let n_words = if n = 0 then 0 else ((n - 1) / per_word) + 1 in
  let plain = Array.make n_words 0 in
  Frontier.fill_remaining g (fun v d ->
      plain.(v / per_word) <-
        plain.(v / per_word) lor (d lsl (v mod per_word * bits)));
  {
    dag = g;
    n_shards;
    block;
    words = Array.map Atomic.make plain;
    per_word;
    bits;
    mask;
    done_count = Atomic.make 0;
  }

let dag t = t.dag
let n_nodes t = Dag.n_nodes t.dag
let n_shards t = t.n_shards

let shard_of t v =
  if v < 0 || v >= n_nodes t then invalid_arg "Shard_view.shard_of: out of range";
  v / t.block

let shard_size t s =
  if s < 0 || s >= t.n_shards then
    invalid_arg "Shard_view.shard_size: out of range";
  let n = n_nodes t in
  let lo = s * t.block in
  let hi = min n ((s + 1) * t.block) in
  max 0 (hi - lo)

let iter_initial t f =
  Frontier.fill_remaining t.dag (fun v d ->
      if d = 0 then f ~shard:(v / t.block) v)

(* true iff this decrement took node [v]'s count from 1 to 0 *)
let decr t v =
  if t.per_word = 1 then Atomic.fetch_and_add t.words.(v) (-1) = 1
  else begin
    let shift = v mod t.per_word * t.bits in
    let old = Atomic.fetch_and_add t.words.(v / t.per_word) (-(1 lsl shift)) in
    (old lsr shift) land t.mask = 1
  end

let complete t v ~ready =
  if v < 0 || v >= n_nodes t then invalid_arg "Shard_view.complete: out of range";
  let off = Dag.succ_offsets t.dag and dat = Dag.succ_targets t.dag in
  for i = Slab.unsafe_get off v to Slab.unsafe_get off (v + 1) - 1 do
    let s = Slab.unsafe_get dat i in
    if decr t s then ready ~shard:(s / t.block) s
  done;
  ignore (Atomic.fetch_and_add t.done_count 1)

let completed t = Atomic.get t.done_count
let is_complete t = completed t = n_nodes t
