(* keys and values in parallel arrays; slots at and beyond [size] are
   garbage. The lane is a ring of [lane_n] entries starting at
   [lane_head], its capacity a power of two, its keys non-decreasing. *)
type 'v t = {
  mutable keys : Float.Array.t;
  mutable vals : 'v array;
  mutable size : int;
  mutable lane_keys : Float.Array.t;
  mutable lane_vals : 'v array;
  mutable lane_head : int;
  mutable lane_n : int;
}

let create () =
  {
    keys = Float.Array.create 0;
    vals = [||];
    size = 0;
    lane_keys = Float.Array.create 0;
    lane_vals = [||];
    lane_head = 0;
    lane_n = 0;
  }

let is_empty h = h.size = 0 && h.lane_n = 0
let size h = h.size + h.lane_n

let lane_mask h = Array.length h.lane_vals - 1 [@@inline]

let min_key h =
  let hk = if h.size = 0 then infinity else Float.Array.get h.keys 0 in
  if h.lane_n = 0 then hk
  else
    let lk = Float.Array.get h.lane_keys h.lane_head in
    if lk < hk then lk else hk
[@@inline]

(* [v] fills the fresh value slots: a ['v array] needs some element *)
let grow h v =
  let cap = max 8 (2 * h.size) in
  let keys = Float.Array.create cap in
  Float.Array.blit h.keys 0 keys 0 h.size;
  let vals = Array.make cap v in
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.vals <- vals

(* Both sifts move a hole and write the moving entry once, at the end.
   They make the strict [<] comparisons of a swap-based heap in the same
   order, so equal keys come out in the same order as they would there. *)

let[@inline] insert h k v =
  if h.size = Array.length h.vals then grow h v;
  let keys = h.keys and vals = h.vals in
  let i = ref h.size in
  while !i > 0 && k < Float.Array.get keys ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    Float.Array.set keys !i (Float.Array.get keys p);
    vals.(!i) <- vals.(p);
    i := p
  done;
  Float.Array.set keys !i k;
  vals.(!i) <- v;
  h.size <- h.size + 1

let push h k v = insert h k v

(* a copy of [insert] of its own, so the sum is never boxed *)
let push_after h t d v = insert h (t +. d) v

(* unrolls the ring into arrays twice as long, head at slot 0 *)
let grow_lane h v =
  let cap = max 8 (2 * h.lane_n) in
  let keys = Float.Array.create cap in
  let vals = Array.make cap v in
  let mask = lane_mask h in
  for j = 0 to h.lane_n - 1 do
    let s = (h.lane_head + j) land mask in
    Float.Array.set keys j (Float.Array.get h.lane_keys s);
    vals.(j) <- h.lane_vals.(s)
  done;
  h.lane_keys <- keys;
  h.lane_vals <- vals;
  h.lane_head <- 0

let append h k v =
  let last = (h.lane_head + h.lane_n - 1) land lane_mask h in
  if h.lane_n > 0 && k < Float.Array.get h.lane_keys last then push h k v
  else begin
    if h.lane_n = Array.length h.lane_vals then grow_lane h v;
    let s = (h.lane_head + h.lane_n) land lane_mask h in
    Float.Array.set h.lane_keys s k;
    h.lane_vals.(s) <- v;
    h.lane_n <- h.lane_n + 1
  end

let pop_heap h =
  let keys = h.keys and vals = h.vals in
  let top = vals.(0) in
  let n = h.size - 1 in
  h.size <- n;
  (* the last entry drops into the root's hole and sinks *)
  let k = Float.Array.get keys n and v = vals.(n) in
  let i = ref 0 and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let s = if l < n && Float.Array.get keys l < k then l else !i in
    let ks = if s = !i then k else Float.Array.get keys s in
    let s = if r < n && Float.Array.get keys r < ks then r else s in
    if s = !i then sinking := false
    else begin
      Float.Array.set keys !i (Float.Array.get keys s);
      vals.(!i) <- vals.(s);
      i := s
    end
  done;
  Float.Array.set keys !i k;
  vals.(!i) <- v;
  top

(* the popped slot keeps its value until overwritten, as the heap's own
   garbage slots do *)
let pop_lane h =
  let v = h.lane_vals.(h.lane_head) in
  h.lane_head <- (h.lane_head + 1) land lane_mask h;
  h.lane_n <- h.lane_n - 1;
  v

let pop_min h =
  if h.lane_n = 0 then begin
    if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
    pop_heap h
  end
  else if
    h.size = 0
    || Float.Array.get h.lane_keys h.lane_head < Float.Array.get h.keys 0
  then pop_lane h
  else pop_heap h
