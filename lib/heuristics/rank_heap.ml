(* ids in [heap.(0 .. len-1)], heap-ordered by (rank, id). Both sifts
   move a hole and write the moving id once, at the end. *)
type t = { rank : int array; mutable heap : int array; mutable len : int }

let create rank = { rank; heap = Array.make 16 0; len = 0 }

let size t = t.len

let push t v =
  let rv = t.rank.(v) in
  if t.len = Array.length t.heap then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.heap 0 bigger 0 t.len;
    t.heap <- bigger
  end;
  let rank = t.rank and heap = t.heap in
  let i = ref t.len in
  let continue = ref true in
  while !continue && !i > 0 do
    let pi = (!i - 1) / 2 in
    let p = heap.(pi) in
    let rp = rank.(p) in
    if rv < rp || (rv = rp && v < p) then begin
      heap.(!i) <- p;
      i := pi
    end
    else continue := false
  done;
  heap.(!i) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then None
  else begin
    let rank = t.rank and heap = t.heap in
    let top = heap.(0) in
    let len = t.len - 1 in
    t.len <- len;
    (* sift the last id down from the root *)
    let x = heap.(len) in
    let rx = rank.(x) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        (* the smaller child *)
        let c = ref heap.(l) in
        let rc = ref rank.(!c) in
        let ci = ref l in
        if l + 1 < len then begin
          let r = heap.(l + 1) in
          let rr = rank.(r) in
          if rr < !rc || (rr = !rc && r < !c) then begin
            c := r;
            rc := rr;
            ci := l + 1
          end
        end;
        if !rc < rx || (!rc = rx && !c < x) then begin
          heap.(!i) <- !c;
          i := !ci
        end
        else continue := false
      end
    done;
    heap.(!i) <- x;
    Some top
  end
