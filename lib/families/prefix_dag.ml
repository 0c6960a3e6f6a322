module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Compose = Ic_core.Compose

let levels n =
  if n < 1 then invalid_arg "Prefix_dag.levels: n >= 1";
  let rec go p acc = if acc >= n then p else go (p + 1) (acc * 2) in
  go 0 1

let node ~n j i = (j * n) + i

let iter_arcs n f =
  let p = levels n in
  for j = 0 to p - 1 do
    let stride = 1 lsl j in
    for i = 0 to n - 1 do
      let u = node ~n j i in
      f u (node ~n (j + 1) i);
      if i + stride < n then f u (node ~n (j + 1) (i + stride))
    done
  done

let dag n =
  let p = levels n in
  Ic_prof.Span.time "families.prefix" @@ fun () ->
  let b = Dag.Builder.create ~n:((p + 1) * n) ~hint:(2 * p * n) () in
  iter_arcs n (Dag.Builder.add_arc b);
  Dag.Builder.build_exn b

(* columns of boundary [j] grouped by residue mod 2^j; each group is one
   N-dag whose anchor is the group's smallest column *)
let iter_boundary_groups n f =
  let p = levels n in
  for j = 0 to p - 1 do
    let stride = 1 lsl j in
    for residue = 0 to stride - 1 do
      let columns = ref [] in
      let i = ref residue in
      while !i < n do
        columns := !i :: !columns;
        i := !i + stride
      done;
      f j (List.rev !columns)
    done
  done

(* levels 0 .. p-1 are the nonsinks; the groups of [iter_boundary_groups],
   written in place *)
let schedule n =
  let p = levels n in
  let size = (p + 1) * n in
  let a = Array.make size 0 in
  let k = ref 0 in
  for j = 0 to p - 1 do
    let stride = 1 lsl j in
    for residue = 0 to stride - 1 do
      let i = ref residue in
      while !i < n do
        a.(!k) <- node ~n j !i;
        incr k;
        i := !i + stride
      done
    done
  done;
  Schedule.of_nonsink_prefix_exn ~n:size ~iter_arcs:(iter_arcs n) a !k

type decomposition = {
  compose : Compose.t;
  schedules : Schedule.t list;
  pos : int array array;
}

let n_decomposition n =
  if n < 2 then invalid_arg "Prefix_dag.n_decomposition: n >= 2";
  let pos = Array.make_matrix (levels n + 1) n (-1) in
  let composite = ref None in
  let schedules = ref [] in
  iter_boundary_groups n (fun j columns ->
      let s = List.length columns in
      let block = Ic_blocks.N_dag.dag s in
      schedules := Ic_blocks.N_dag.schedule s :: !schedules;
      let c2 = Compose.of_dag block in
      let base =
        match !composite with
        | None ->
          composite := Some c2;
          0
        | Some c1 ->
          let pairs =
            if j = 0 then []
            else List.mapi (fun k i -> (pos.(j).(i), k)) columns
          in
          let n_before = Dag.n_nodes (Compose.dag c1) in
          composite := Some (Compose.compose_exn c1 c2 ~pairs);
          n_before
      in
      (* appended composite ids: unmerged nodes ascending. For j = 0 the
         block's sources (0..s-1) then sinks (s..2s-1); otherwise only the
         sinks. *)
      if j = 0 then begin
        List.iteri (fun k i -> pos.(0).(i) <- base + k) columns;
        List.iteri (fun k i -> pos.(1).(i) <- base + s + k) columns
      end
      else List.iteri (fun k i -> pos.(j + 1).(i) <- base + k) columns);
  let composite = Option.get !composite in
  { compose = composite; schedules = List.rev !schedules; pos }

let combines n =
  let p = levels n in
  let acc = ref [] in
  for j = p - 1 downto 0 do
    let stride = 1 lsl j in
    for i = n - 1 downto stride do
      acc := (node ~n (j + 1) i, node ~n j (i - stride), node ~n j i) :: !acc
    done
  done;
  !acc
