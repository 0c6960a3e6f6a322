(* keys and values in parallel arrays; slots at and beyond [size] are
   garbage *)
type 'v t = {
  mutable keys : Float.Array.t;
  mutable vals : 'v array;
  mutable size : int;
}

let create () = { keys = Float.Array.create 0; vals = [||]; size = 0 }
let is_empty h = h.size = 0
let size h = h.size

let min_key h =
  if h.size = 0 then infinity else Float.Array.get h.keys 0
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

let push h k v =
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

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
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
