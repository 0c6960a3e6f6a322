module Dag = Ic_dag.Dag
module M = Ic_families.Matmul_dag

type mat = float array array

let naive a b =
  let n = Array.length a in
  if n = 0 || Array.length b <> n || Array.length a.(0) <> n then
    invalid_arg "Matmul.naive: need equal-size square matrices";
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref 0.0 in
          for k = 0 to n - 1 do
            acc := !acc +. (a.(i).(k) *. b.(k).(j))
          done;
          !acc))

let quadrant m ~half ~row ~col =
  Array.init half (fun i -> Array.init half (fun j -> m.(row + i).(col + j)))

let assemble ~half tl tr bl br =
  Array.init (2 * half) (fun i ->
      Array.init (2 * half) (fun j ->
          let q =
            if i < half then if j < half then tl else tr
            else if j < half then bl
            else br
          in
          q.(i mod half).(j mod half)))

let add_mat a b =
  Array.init (Array.length a) (fun i ->
      Array.init (Array.length a.(0)) (fun j -> a.(i).(j) +. b.(i).(j)))

(* operand node -> (which input matrix, quadrant row, quadrant col):
   A B ; C D are quadrants of the left operand, E F ; G H of the right *)
let operand_info = function
  | 0 -> (`Left, 0, 0) (* A *)
  | 2 -> (`Left, 1, 0) (* C *)
  | 8 -> (`Left, 0, 1) (* B *)
  | 10 -> (`Left, 1, 1) (* D *)
  | 1 -> (`Right, 0, 0) (* E *)
  | 3 -> (`Right, 0, 1) (* F *)
  | 9 -> (`Right, 1, 0) (* G *)
  | 11 -> (`Right, 1, 1) (* H *)
  | _ -> invalid_arg "Matmul.operand_info"

let is_operand v = v < 4 || (v >= 8 && v < 12)
let is_product v = (v >= 4 && v < 8) || (v >= 12 && v < 16)

let product values =
  (* sums: 16 = AE+BG (top-left), 19 = AF+BH (top-right),
     17 = CE+DG (bottom-left), 18 = CF+DH (bottom-right) *)
  assemble ~half:(Array.length values.(16)) values.(16) values.(19)
    values.(17) values.(18)

let rec engine ?(threshold = 32) a b =
  let n = Array.length a in
  if n < 2 || n land (n - 1) <> 0 || Array.length b <> n then
    invalid_arg
      "Matmul.engine: need equal-size matrices of power-of-two size >= 2";
  let half = n / 2 in
  let g = M.dag () in
  let module Slab = Ic_dag.Slab in
  let poff = Dag.pred_offsets g and pdat = Dag.pred_sources g in
  let compute v parents =
    if is_operand v then begin
      let side, qi, qj = operand_info v in
      let src = match side with `Left -> a | `Right -> b in
      quadrant src ~half ~row:(qi * half) ~col:(qj * half)
    end
    else if is_product v then begin
      (* one parent is a left-matrix operand, the other a right one *)
      let left, right =
        match operand_info (Slab.get pdat (Slab.get poff v)) with
        | `Left, _, _ -> (parents.(0), parents.(1))
        | `Right, _, _ -> (parents.(1), parents.(0))
      in
      multiply ~threshold left right
    end
    else add_mat parents.(0) parents.(1)
  in
  { Engine.dag = g; compute }

and multiply ?(threshold = 32) a b =
  let n = Array.length a in
  if n = 0 || n land (n - 1) <> 0 then
    invalid_arg "Matmul.multiply: dimension must be a power of two";
  if n <= threshold || n = 1 then naive a b
  else
    product
      (Engine.execute ~schedule:(M.schedule ()) (engine ~threshold a b))

let random rng n =
  Array.init n (fun _ -> Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0))

let approx_equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j x ->
              let scale = 1.0 +. Float.abs x +. Float.abs b.(i).(j) in
              if Float.abs (x -. b.(i).(j)) > eps *. scale then ok := false)
            row)
        a;
      !ok)
