module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Compose = Ic_core.Compose

let node ~d l r = (l lsl d) + r

let n_nodes d =
  if d < 1 then invalid_arg "Butterfly_net.dag: need dimension >= 1";
  (d + 1) lsl d

let iter_arcs d f =
  let rows = 1 lsl d in
  for l = 0 to d - 1 do
    for r = 0 to rows - 1 do
      let u = node ~d l r in
      f u (node ~d (l + 1) r);
      f u (node ~d (l + 1) (r lxor (1 lsl l)))
    done
  done

let dag d =
  let n = n_nodes d in
  Ic_prof.Span.time "families.butterfly" @@ fun () ->
  let b = Dag.Builder.create ~n ~hint:(2 * d * (1 lsl d)) () in
  iter_arcs d (Dag.Builder.add_arc b);
  Dag.Builder.build_exn b

(* the two sources of the B-copy at level [l], pair-base [r] (bit l clear)
   are rows [r] and [r + 2^l] of level [l] *)
let iter_blocks d f =
  let rows = 1 lsl d in
  for l = 0 to d - 1 do
    for r = 0 to rows - 1 do
      if r land (1 lsl l) = 0 then f l r (r lor (1 lsl l))
    done
  done

(* levels 0 .. d-1 are the nonsinks *)
let schedule d =
  let n = n_nodes d in
  let a = Array.make n 0 in
  let i = ref 0 in
  iter_blocks d (fun l r r' ->
      a.(!i) <- node ~d l r;
      a.(!i + 1) <- node ~d l r';
      i := !i + 2);
  Schedule.of_nonsink_prefix_exn ~n ~iter_arcs:(iter_arcs d) a !i

let pairs_consecutive d s =
  let pos = Array.make (n_nodes d) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) (Schedule.order s);
  let ok = ref true in
  iter_blocks d (fun l r r' ->
      let p = pos.(node ~d l r) and p' = pos.(node ~d l r') in
      if abs (p - p') <> 1 then ok := false);
  !ok

let block_decomposition d =
  if d < 1 then invalid_arg "Butterfly_net.block_decomposition: dimension >= 1";
  let rows = 1 lsl d in
  let pos = Array.make_matrix (d + 1) rows (-1) in
  let block = Ic_blocks.Butterfly_block.dag () in
  let composite = ref None in
  let n_blocks = ref 0 in
  iter_blocks d (fun l r r' ->
      incr n_blocks;
      let c2 = Compose.of_dag block in
      let base =
        match !composite with
        | None ->
          composite := Some c2;
          0
        | Some c1 ->
          let pairs =
            if l = 0 then []
            else [ (pos.(l).(r), 0); (pos.(l).(r'), 1) ]
          in
          let n_before = Dag.n_nodes (Compose.dag c1) in
          composite := Some (Compose.compose_exn c1 c2 ~pairs);
          n_before
      in
      (* newly appended composite ids: unmerged nodes of the block ascending *)
      if l = 0 then begin
        pos.(0).(r) <- base;
        pos.(0).(r') <- base + 1;
        pos.(1).(r) <- base + 2;
        pos.(1).(r') <- base + 3
      end
      else begin
        pos.(l + 1).(r) <- base;
        pos.(l + 1).(r') <- base + 1
      end);
  let composite = Option.get !composite in
  let schedules =
    List.init !n_blocks (fun _ -> Ic_blocks.Butterfly_block.schedule ())
  in
  (composite, schedules)
