module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Mesh = Ic_families.Mesh

let pascal levels =
  let g = Mesh.out_mesh levels in
  (* node (k, j) has parents (k-1, j-1) and/or (k-1, j): their sum is the
     binomial C(k, j) *)
  let compute _v parents =
    if Array.length parents = 0 then 1
    else Array.fold_left ( + ) 0 parents
  in
  let values =
    Engine.execute ~schedule:(Mesh.out_schedule levels) { Engine.dag = g; compute }
  in
  Array.init (levels + 1) (fun j -> values.(Mesh.node levels j))

let iter_grid_arcs ~rows ~cols f =
  let w = cols + 1 in
  let node i j = (i * w) + j in
  for i = 0 to rows do
    for j = 0 to cols do
      let u = node i j in
      if i < rows then f u (node (i + 1) j);
      if j < cols then f u (node i (j + 1));
      if i < rows && j < cols then f u (node (i + 1) (j + 1))
    done
  done

let grid ~rows ~cols =
  let b =
    Dag.Builder.create ~n:((rows + 1) * (cols + 1))
      ~hint:((3 * rows * cols) + rows + cols) ()
  in
  iter_grid_arcs ~rows ~cols (Dag.Builder.add_arc b);
  Dag.Builder.build_exn b

let grid_schedule ~rows ~cols =
  let w = cols + 1 in
  let n = (rows + 1) * w in
  let a = Array.make n 0 in
  let k = ref 0 in
  for diag = 0 to rows + cols do
    for i = max 0 (diag - cols) to min rows diag do
      a.(!k) <- (i * w) + diag - i;
      incr k
    done
  done;
  Schedule.validate_exn ~n ~iter_arcs:(iter_grid_arcs ~rows ~cols) a

let edit_distance s t =
  let rows = String.length s and cols = String.length t in
  let g = grid ~rows ~cols in
  let w = cols + 1 in
  let compute v parents =
    let i = v / w and j = v mod w in
    if i = 0 then j
    else if j = 0 then i
    else begin
      (* parents ascending: (i-1, j-1), (i-1, j), (i, j-1) *)
      let diag = parents.(0) and up = parents.(1) and left = parents.(2) in
      let cost = if s.[i - 1] = t.[j - 1] then 0 else 1 in
      min (diag + cost) (min (up + 1) (left + 1))
    end
  in
  let values =
    Engine.execute ~schedule:(grid_schedule ~rows ~cols) { Engine.dag = g; compute }
  in
  values.((rows * w) + cols)

let pyramid_reduce ~op input =
  let n = Array.length input in
  if n < 1 then invalid_arg "Wavefront.pyramid_reduce: empty input";
  let levels = n - 1 in
  let g = Mesh.in_mesh levels in
  let base = Mesh.node levels 0 in
  let compute v parents =
    if v >= base then input.(v - base)
    else op parents.(0) parents.(1)
  in
  let values =
    Engine.execute ~schedule:(Mesh.in_schedule levels) { Engine.dag = g; compute }
  in
  values.(Mesh.node 0 0)

let edit_distance_reference s t =
  let m = String.length s and n = String.length t in
  let dp = Array.make_matrix (m + 1) (n + 1) 0 in
  for i = 0 to m do
    dp.(i).(0) <- i
  done;
  for j = 0 to n do
    dp.(0).(j) <- j
  done;
  for i = 1 to m do
    for j = 1 to n do
      let cost = if s.[i - 1] = t.[j - 1] then 0 else 1 in
      dp.(i).(j) <-
        min (dp.(i - 1).(j - 1) + cost) (min (dp.(i - 1).(j) + 1) (dp.(i).(j - 1) + 1))
    done
  done;
  dp.(m).(n)
