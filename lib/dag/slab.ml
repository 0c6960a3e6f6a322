module A1 = Bigarray.Array1

type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) A1.t

(* Every accessor annotates its slab argument: with the kind and layout
   statically known the compiler emits direct unboxed loads/stores; left
   polymorphic they would fall back to the generic (C-call, boxing)
   bigarray path. *)

let max_value = Int32.to_int Int32.max_int

let create len : t =
  let s = A1.create Bigarray.int32 Bigarray.c_layout len in
  A1.fill s 0l;
  s

let length (s : t) = A1.dim s
let get (s : t) i = Int32.to_int (A1.get s i) [@@inline]
let set (s : t) i v = A1.set s i (Int32.of_int v) [@@inline]
let unsafe_get (s : t) i = Int32.to_int (A1.unsafe_get s i) [@@inline]
let unsafe_set (s : t) i v = A1.unsafe_set s i (Int32.of_int v) [@@inline]
let fill (s : t) v = A1.fill s (Int32.of_int v)
let blit (src : t) (dst : t) = A1.blit src dst
let sub (s : t) pos len : t = A1.sub s pos len

let copy (s : t) : t =
  let out = A1.create Bigarray.int32 Bigarray.c_layout (A1.dim s) in
  A1.blit s out;
  out

let to_int_array ?(pos = 0) ?len (s : t) =
  let len = match len with Some l -> l | None -> A1.dim s - pos in
  Array.init len (fun i -> Int32.to_int (A1.get s (pos + i)))

let equal (s1 : t) (s2 : t) =
  A1.dim s1 = A1.dim s2
  &&
  let n = A1.dim s1 in
  let rec go i = i >= n || (A1.unsafe_get s1 i = A1.unsafe_get s2 i && go (i + 1)) in
  go 0

(* In-place range sort with no allocation: insertion sort for short runs
   (CSR rows are almost always short — a mesh row holds two entries),
   heapsort for the occasional high-degree node. *)
let sort_range (s : t) ~lo ~hi =
  let len = hi - lo in
  if len > 1 then
    if len <= 24 then
      for i = lo + 1 to hi - 1 do
        let x = A1.unsafe_get s i in
        let j = ref (i - 1) in
        while !j >= lo && A1.unsafe_get s !j > x do
          A1.unsafe_set s (!j + 1) (A1.unsafe_get s !j);
          decr j
        done;
        A1.unsafe_set s (!j + 1) x
      done
    else begin
      (* heapsort over s.[lo .. hi-1], heap indices 0-based at lo *)
      let swap i j =
        let x = A1.unsafe_get s (lo + i) in
        A1.unsafe_set s (lo + i) (A1.unsafe_get s (lo + j));
        A1.unsafe_set s (lo + j) x
      in
      let sift_down root limit =
        let i = ref root in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 in
          if l >= limit then continue := false
          else begin
            let child =
              if l + 1 < limit
                 && A1.unsafe_get s (lo + l + 1) > A1.unsafe_get s (lo + l)
              then l + 1
              else l
            in
            if A1.unsafe_get s (lo + child) > A1.unsafe_get s (lo + !i) then begin
              swap child !i;
              i := child
            end
            else continue := false
          end
        done
      in
      for root = (len / 2) - 1 downto 0 do
        sift_down root len
      done;
      for last = len - 1 downto 1 do
        swap 0 last;
        sift_down 0 last
      done
    end
