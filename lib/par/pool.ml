module Rank_heap = Ic_heuristics.Rank_heap

type shard = { lock : Mutex.t; heap : Rank_heap.t }
type t = shard array

let create ~shards ~rank =
  if shards <= 0 then invalid_arg "Pool.create: shards must be positive";
  Array.init shards (fun _ ->
      { lock = Mutex.create (); heap = Rank_heap.create rank })

let push t ~shard v =
  let s = t.(shard) in
  Mutex.lock s.lock;
  Rank_heap.push s.heap v;
  Mutex.unlock s.lock

let pop t ~shard =
  let s = t.(shard) in
  Mutex.lock s.lock;
  let v = Rank_heap.pop s.heap in
  Mutex.unlock s.lock;
  v

let try_steal t ~shard =
  let s = t.(shard) in
  (* cheap racy emptiness probe first: an empty shard costs no lock
     traffic on the steal sweep *)
  if Rank_heap.size s.heap = 0 then None
  else if not (Mutex.try_lock s.lock) then None
  else begin
    let v = Rank_heap.pop s.heap in
    Mutex.unlock s.lock;
    v
  end

let size t = Array.fold_left (fun acc s -> acc + Rank_heap.size s.heap) 0 t
