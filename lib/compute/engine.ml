module Dag = Ic_dag.Dag
module Slab = Ic_dag.Slab
module Schedule = Ic_dag.Schedule
module Frontier = Ic_dag.Frontier
module Trace = Ic_obs.Trace

type 'a t = {
  dag : Dag.t;
  compute : int -> 'a array -> 'a;
}

(* Parent values are handed to [compute] in a scratch buffer reused across
   all nodes of the same in-degree, filled straight from the pred CSR — the
   per-node [Array.map] allocation this replaces dominated execution cost on
   large dags. [compute] must not retain the buffer (see the mli). *)
let scratch_pool ~max_deg dummy =
  let pool = Array.make (max_deg + 1) [||] in
  fun d ->
    if d = 0 then [||]
    else begin
      if Array.length pool.(d) = 0 then pool.(d) <- Array.make d dummy;
      pool.(d)
    end

let max_in_degree poff n =
  let m = ref 0 in
  for v = 0 to n - 1 do
    let d = Slab.unsafe_get poff (v + 1) - Slab.unsafe_get poff v in
    if d > !m then m := d
  done;
  !m

type executor = Dag.t -> (int -> unit) -> unit

(* Under an external executor the engine gives up its frontier and its
   shared scratch: values live in an ['a option array] (one cell per node,
   written exactly once), and each step fills a fresh parents buffer. Cells
   make wrong executors fail loudly (a missing parent is [None], not a
   stale dummy), and per-step buffers make steps reentrant from any domain
   — the executor's dependence discipline is the only synchronization. *)
let execute_with ~executor t =
  let g = t.dag in
  let n = Dag.n_nodes g in
  if n = 0 then [||]
  else begin
    let poff = Dag.pred_offsets g and pdat = Dag.pred_sources g in
    let values = Array.make n None in
    let step v =
      if v < 0 || v >= n then invalid_arg "Engine.execute: step out of range";
      let base = Slab.get poff v in
      let d = Slab.get poff (v + 1) - base in
      let parents =
        Array.init d (fun k ->
            match values.(Slab.unsafe_get pdat (base + k)) with
            | Some x -> x
            | None -> invalid_arg "Engine.execute: executor stepped a node before its parents")
      in
      values.(v) <- Some (t.compute v parents)
    in
    executor g step;
    Array.map
      (function
        | Some x -> x
        | None -> invalid_arg "Engine.execute: executor did not step every node")
      values
  end

(* Streams over a frontier: the frontier both supplies the default order and
   proves, before every value is computed, that the node's parents have
   already been computed — so parent values can be read straight out of the
   result array, with no option boxing. *)
let execute ?schedule ?executor ?sink t =
  match executor with
  | Some exec ->
    if schedule <> None then
      invalid_arg "Engine.execute: an executor owns the order; drop ?schedule";
    ignore sink;
    execute_with ~executor:exec t
  | None ->
  let g = t.dag in
  let n = Dag.n_nodes g in
  let order =
    match schedule with
    | Some s ->
      if Schedule.length s <> n then
        invalid_arg "Engine.execute: schedule does not fit the dag";
      Some (Schedule.order s)
    | None -> None
  in
  if n = 0 then [||]
  else begin
    let poff = Dag.pred_offsets g and pdat = Dag.pred_sources g in
    let fr = Frontier.create g in
    (* the engine has no simulated clock; events are stamped with the
       execution step, client 0 standing in for "the engine" *)
    let step = ref 0 in
    let emit kind ~time ~a =
      match sink with
      | None -> ()
      | Some tr -> Trace.emit tr kind ~time:(float_of_int time) ~a ~b:0
    in
    (* the frontier's step callback, built once *)
    let on_promote =
      match sink with
      | None -> None
      | Some _ -> Some (fun w -> emit Trace.Frontier_push ~time:!step ~a:w)
    in
    Frontier.iter (fun v -> emit Trace.Frontier_push ~time:0 ~a:v) fr;
    emit Trace.Eligible_count ~time:0 ~a:(Frontier.count fr);
    let next i =
      match order with
      | Some o -> o.(i)
      | None -> (
        match Frontier.choose fr with Some v -> v | None -> assert false)
    in
    let execute v =
      let i = !step in
      emit Trace.Frontier_pop ~time:i ~a:v;
      Frontier.execute ?on_promote fr v;
      emit Trace.Task_start ~time:i ~a:v;
      emit Trace.Task_complete ~time:(i + 1) ~a:v;
      emit Trace.Eligible_count ~time:(i + 1) ~a:(Frontier.count fr)
    in
    let v0 = next 0 in
    if not (Frontier.is_eligible fr v0) then
      invalid_arg "Engine.execute: invalid schedule order";
    (* v0 is eligible at step 0, hence a source *)
    let values = Array.make n (t.compute v0 [||]) in
    let buffer = scratch_pool ~max_deg:(max_in_degree poff n) values.(v0) in
    execute v0;
    for i = 1 to n - 1 do
      step := i;
      let v = next i in
      if not (Frontier.is_eligible fr v) then
        invalid_arg "Engine.execute: invalid schedule order";
      let base = Slab.get poff v in
      let d = Slab.get poff (v + 1) - base in
      let parents = buffer d in
      for k = 0 to d - 1 do
        Array.unsafe_set parents k values.(Slab.unsafe_get pdat (base + k))
      done;
      execute v;
      values.(v) <- t.compute v parents
    done;
    values
  end

let value_at ?schedule t target =
  let g = t.dag in
  let n = Dag.n_nodes g in
  if target < 0 || target >= n then
    invalid_arg "Engine.value_at: node out of range";
  let order =
    match schedule with
    | Some s ->
      if Schedule.length s <> n then
        invalid_arg "Engine.value_at: schedule does not fit the dag";
      Schedule.order s
    | None -> Dag.topological_order g
  in
  let poff = Dag.pred_offsets g and pdat = Dag.pred_sources g in
  (* [target]'s value only depends on its ancestor cone, so only the cone is
     computed: reverse BFS over predecessors marks it, then the order is
     replayed skipping everything outside. *)
  let in_cone = Bytes.make n '\000' in
  Bytes.set in_cone target '\001';
  let queue = Queue.create () in
  Queue.add target queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    for i = Slab.get poff u to Slab.get poff (u + 1) - 1 do
      let p = Slab.unsafe_get pdat i in
      if Bytes.unsafe_get in_cone p = '\000' then begin
        Bytes.unsafe_set in_cone p '\001';
        Queue.add p queue
      end
    done
  done;
  (* the first cone node of a valid order is necessarily a cone source: its
     parents are all in the cone and none is computed yet *)
  let first = ref 0 in
  while Bytes.get in_cone order.(!first) = '\000' do
    incr first
  done;
  let v0 = order.(!first) in
  if Slab.get poff (v0 + 1) - Slab.get poff v0 <> 0 then
    invalid_arg "Engine.value_at: invalid schedule order";
  let values = Array.make n (t.compute v0 [||]) in
  let computed = Bytes.make n '\000' in
  Bytes.set computed v0 '\001';
  if v0 = target then values.(target)
  else begin
    let buffer = scratch_pool ~max_deg:(max_in_degree poff n) values.(v0) in
    let i = ref (!first + 1) in
    let result = ref values.(v0) in
    let finished = ref false in
    while not !finished do
      if !i >= n then invalid_arg "Engine.value_at: invalid schedule order";
      let v = order.(!i) in
      if Bytes.get in_cone v = '\001' then begin
        if Bytes.get computed v = '\001' then
          invalid_arg "Engine.value_at: invalid schedule order";
        let base = Slab.get poff v in
        let d = Slab.get poff (v + 1) - base in
        let parents = buffer d in
        for k = 0 to d - 1 do
          let p = Slab.unsafe_get pdat (base + k) in
          if Bytes.get computed p = '\000' then
            invalid_arg "Engine.value_at: invalid schedule order";
          Array.unsafe_set parents k values.(p)
        done;
        let value = t.compute v parents in
        values.(v) <- value;
        Bytes.set computed v '\001';
        if v = target then begin
          result := value;
          finished := true
        end
      end;
      incr i
    done;
    !result
  end
