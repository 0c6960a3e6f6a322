module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Profile = Ic_dag.Profile
module Slab = Ic_dag.Slab

type shape = Leaf | Node of shape list

let complete ~arity ~depth =
  if arity < 1 then invalid_arg "Out_tree.complete: arity < 1";
  if depth < 0 then invalid_arg "Out_tree.complete: negative depth";
  (* 1 + arity + ... + arity^depth against the bound, before the shape
     is built on the heap; it stops past the bound, so nothing overflows *)
  let rec fits level width total =
    if total > Dag.max_nodes then false
    else if level = depth then true
    else if arity = 1 then depth < Dag.max_nodes
    else
      width <= Dag.max_nodes / arity
      && fits (level + 1) (width * arity) (total + (width * arity))
  in
  if not (fits 0 1 1) then
    invalid_arg
      (Printf.sprintf
         "Out_tree.complete: arity %d, depth %d needs more than %d nodes" arity
         depth Dag.max_nodes);
  (* one subtree per level, shared by every child: the shape is
     immutable and every traversal walks it as a tree, so [depth + 1]
     blocks stand for [arity^depth] leaves *)
  let rec go d =
    if d = 0 then Leaf
    else
      let sub = go (d - 1) in
      Node (List.init arity (fun _ -> sub))
  in
  go depth

let random rng ~max_internal ~arity =
  if arity < 1 then invalid_arg "Out_tree.random: arity < 1";
  (* grow by expanding a uniformly random leaf *)
  let rec expand shape target =
    (* [target] indexes leaves left to right; returns the new shape and
       either the remaining index (Error) or the result (Ok) *)
    match shape with
    | Leaf ->
      if target = 0 then Ok (Node (List.init arity (fun _ -> Leaf))) else Error 1
    | Node children ->
      let rec over acc skipped = function
        | [] -> Error skipped
        | c :: rest -> (
          match expand c (target - skipped) with
          | Ok c' -> Ok (Node (List.rev_append acc (c' :: rest)))
          | Error k -> over (c :: acc) (skipped + k) rest)
      in
      over [] 0 children
  in
  let rec n_leaves = function
    | Leaf -> 1
    | Node cs -> List.fold_left (fun acc c -> acc + n_leaves c) 0 cs
  in
  let rec go shape k =
    if k = 0 then shape
    else
      let leaves = n_leaves shape in
      match expand shape (Random.State.int rng leaves) with
      | Ok shape' -> go shape' (k - 1)
      | Error _ -> assert false
  in
  go Leaf max_internal

(* Shapes can be as deep as the dag is large, so traversals use an
   explicit stack: the children still to visit at each open level. Those
   lists are the shape's own, so a walk allocates only the stack, O(depth)
   words, never a word per node. [enter] sees every node in pre-order,
   children left to right; [leave] is called once a node's subtree is
   done. *)
let walk shape ~enter ~leave =
  let stack = ref (Array.make 16 []) and depth = ref 0 in
  let visit s =
    enter s;
    match s with
    | Leaf -> leave ()
    | Node cs ->
      if !depth = Array.length !stack then begin
        let bigger = Array.make (2 * !depth) [] in
        Array.blit !stack 0 bigger 0 !depth;
        stack := bigger
      end;
      !stack.(!depth) <- cs;
      incr depth
  in
  visit shape;
  while !depth > 0 do
    let top = !depth - 1 in
    match !stack.(top) with
    | [] ->
      depth := top;
      leave ()
    | c :: rest ->
      !stack.(top) <- rest;
      visit c
  done

let count_nodes ~leaves_only shape =
  let count = ref 0 in
  walk shape ~leave:ignore ~enter:(function
    | Leaf -> incr count
    | Node _ -> if not leaves_only then incr count);
  !count

let n_nodes = count_nodes ~leaves_only:false
let n_leaves = count_nodes ~leaves_only:true

(* Ids in pre-order, children left to right. A first walk records each
   node's subtree size; then node [v]'s children are [v + 1] and, after
   each child [c], [c + size c]. So every node's arcs are added together
   and in ascending order, sources ascending: a sorted, forward stream
   that the Builder turns into the CSR directly. While a subtree is open,
   its root's entry links to the next open root (a stack threaded through
   the slab); it becomes the size when the subtree closes. *)
let dag_of_shape shape =
  let n = n_nodes shape in
  let size = Slab.create n in
  let next = ref 0 and top = ref (-1) in
  walk shape
    ~enter:(fun _ ->
      Slab.unsafe_set size !next !top;
      top := !next;
      incr next)
    ~leave:(fun () ->
      let id = !top in
      top := Slab.unsafe_get size id;
      Slab.unsafe_set size id (!next - id));
  let b = Dag.Builder.create ~n ~hint:(n - 1) () in
  for v = 0 to n - 1 do
    let stop = v + Slab.unsafe_get size v in
    let c = ref (v + 1) in
    while !c < stop do
      Dag.Builder.add_arc b v !c;
      c := !c + Slab.unsafe_get size !c
    done
  done;
  Dag.Builder.build_exn b

let dag ~arity ~depth = dag_of_shape (complete ~arity ~depth)

let is_out_tree g =
  let n = Dag.n_nodes g in
  n > 0
  && Dag.is_connected g
  && List.length (Dag.sources g) = 1
  && List.for_all (fun v -> Dag.in_degree g v <= 1) (List.init n Fun.id)

let schedule g =
  if not (is_out_tree g) then invalid_arg "Out_tree.schedule: not an out-tree";
  (* breadth-first from the root, nonsinks only *)
  let root = List.hd (Dag.sources g) in
  let order = ref [] in
  let queue = Queue.create () in
  Queue.add root queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if not (Dag.is_sink g v) then begin
      order := v :: !order;
      Dag.iter_succ g v (fun w -> Queue.add w queue)
    end
  done;
  Schedule.of_nonsink_order_exn g (List.rev !order)

let schedules_all_optimal g =
  let bfs = schedule g in
  let dfs =
    (* depth-first nonsink order, leftmost subtree first *)
    let soff = Dag.succ_offsets g and sdat = Dag.succ_targets g in
    let order = ref [] in
    let stack = Stack.create () in
    Stack.push (List.hd (Dag.sources g)) stack;
    while not (Stack.is_empty stack) do
      let v = Stack.pop stack in
      if not (Dag.is_sink g v) then begin
        order := v :: !order;
        for i = Slab.get soff (v + 1) - 1 downto Slab.get soff v do
          Stack.push (Slab.get sdat i) stack
        done
      end
    done;
    Schedule.of_nonsink_order_exn g (List.rev !order)
  in
  let rng = Random.State.make [| 0x1C0DE |] in
  let rand = Ic_dag.Gen.random_nonsinks_first_schedule rng g in
  let p = Profile.run g bfs in
  p = Profile.run g dfs && p = Profile.run g rand
