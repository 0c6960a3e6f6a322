type pool = { mutable items : int array; mutable size : int }
type t = pool array

let create ~n_shards () =
  if n_shards < 1 then invalid_arg "Shards.create: n_shards must be >= 1";
  Array.init n_shards (fun _ -> { items = Array.make 64 0; size = 0 })

let n_shards (t : t) = Array.length t

let check t ~shard =
  if shard < 0 || shard >= Array.length t then
    invalid_arg "Shards: shard out of range"

let push t ~shard v =
  check t ~shard;
  let p = t.(shard) in
  if p.size = Array.length p.items then begin
    let grown = Array.make (2 * p.size) 0 in
    Array.blit p.items 0 grown 0 p.size;
    p.items <- grown
  end;
  p.items.(p.size) <- v;
  p.size <- p.size + 1

let pop_batch t ~shard ~max out =
  check t ~shard;
  if max > Array.length out then invalid_arg "Shards.pop_batch: out too short";
  let p = t.(shard) in
  let b = min max p.size in
  for i = 0 to b - 1 do
    out.(i) <- p.items.(p.size - 1 - i)
  done;
  p.size <- p.size - b;
  b

let size t ~shard =
  check t ~shard;
  t.(shard).size

let total t = Array.fold_left (fun acc p -> acc + p.size) 0 t
