module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Compose = Ic_core.Compose

let node k j = (k * (k + 1) / 2) + j

let n_nodes levels =
  if levels < 0 then invalid_arg "Mesh.out_mesh: negative depth";
  (levels + 1) * (levels + 2) / 2

let iter_arcs levels f =
  for k = 0 to levels - 1 do
    for j = 0 to k do
      let u = node k j in
      f u (node (k + 1) j);
      f u (node (k + 1) (j + 1))
    done
  done

let out_mesh levels =
  let n = n_nodes levels in
  Ic_prof.Span.time "families.mesh" @@ fun () ->
  let b = Dag.Builder.create ~n ~hint:(levels * (levels + 1)) () in
  iter_arcs levels (Dag.Builder.add_arc b);
  Dag.Builder.build_exn b

let in_mesh levels = Dag.dual (out_mesh levels)

(* ids number the levels in order, each left to right, so the wavefront
   order is ascending ids; levels 0 .. L-1 are the nonsinks *)
let out_schedule levels =
  let n = n_nodes levels in
  Schedule.of_nonsink_prefix_exn ~n ~iter_arcs:(iter_arcs levels)
    (Array.init n Fun.id) (node levels 0)

let in_schedule levels =
  Ic_dag.Duality.dual_schedule (out_mesh levels) (out_schedule levels)

let w_decomposition levels =
  if levels < 1 then invalid_arg "Mesh.w_decomposition: need at least one level";
  let blocks = List.init levels (fun k -> Ic_blocks.W_dag.dag (k + 1)) in
  let compose =
    match Compose.chain_full (List.map Compose.of_dag blocks) with
    | Ok c -> c
    | Error msg -> invalid_arg ("Mesh.w_decomposition: " ^ msg)
  in
  let schedules = List.init levels (fun k -> Ic_blocks.W_dag.schedule (k + 1)) in
  (compose, schedules)
