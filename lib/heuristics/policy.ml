module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule

type instance = {
  notify : int -> unit;
  select : unit -> int option;
}

type t = {
  name : string;
  instantiate : Dag.t -> instance;
}

let name p = p.name
let instantiate p g = p.instantiate g
let notify i v = i.notify v
let select i = i.select ()

let fifo =
  let instantiate _g =
    let q = Queue.create () in
    {
      notify = (fun v -> Queue.add v q);
      select = (fun () -> Queue.take_opt q);
    }
  in
  { name = "fifo"; instantiate }

let lifo =
  let instantiate _g =
    let stack = ref [] in
    {
      notify = (fun v -> stack := v :: !stack);
      select =
        (fun () ->
          match !stack with
          | [] -> None
          | v :: rest ->
            stack := rest;
            Some v);
    }
  in
  { name = "lifo"; instantiate }

let random seed =
  let instantiate g =
    let rng = Random.State.make [| seed |] in
    (* array-backed pool with swap-remove: O(1) notify and select *)
    let pool = ref (Array.make (max 16 (Dag.n_nodes g)) 0) in
    let size = ref 0 in
    {
      notify =
        (fun v ->
          if !size = Array.length !pool then begin
            let bigger = Array.make (2 * !size) 0 in
            Array.blit !pool 0 bigger 0 !size;
            pool := bigger
          end;
          !pool.(!size) <- v;
          incr size);
      select =
        (fun () ->
          if !size = 0 then None
          else begin
            let k = Random.State.int rng !size in
            let v = !pool.(k) in
            decr size;
            !pool.(k) <- !pool.(!size);
            Some v
          end);
    }
  in
  { name = Printf.sprintf "random(%#x)" seed; instantiate }

(* rank-based policy: lowest (rank, node) first *)
let ranked name make_rank =
  let instantiate g =
    let heap = Rank_heap.create (make_rank g) in
    { notify = Rank_heap.push heap; select = (fun () -> Rank_heap.pop heap) }
  in
  { name; instantiate }

let max_out_degree =
  ranked "max-out-degree" (fun g ->
      Array.init (Dag.n_nodes g) (fun v -> -Dag.out_degree g v))

let min_depth = ranked "min-depth" Dag.depth

let critical_path =
  ranked "critical-path" (fun g -> Array.map (fun h -> -h) (Dag.height g))

let of_schedule name s =
  let pos =
    lazy
      (let order = Schedule.order s in
       let pos = Array.make (Array.length order) 0 in
       Array.iteri (fun i v -> pos.(v) <- i) order;
       pos)
  in
  ranked name (fun g ->
      let pos = Lazy.force pos in
      if Array.length pos <> Dag.n_nodes g then
        invalid_arg "Policy.of_schedule: schedule does not fit the dag";
      pos)

let baselines =
  [ fifo; lifo; random 0xF00D; max_out_degree; min_depth; critical_path ]

module Robust = struct
  (* Membership flags make notify idempotent and withdrawal O(1) without
     touching the base policy's internal containers: duplicates and
     withdrawn tasks stay in the base's heap/queue as stale entries and
     are skipped on select (lazy deletion). Invariant: [pooled.(v)]
     implies the base holds at least one live entry for [v]. *)
  type t = {
    base : instance;
    pooled : bool array;
    mutable size : int;
  }

  let create p g =
    {
      base = instantiate p g;
      pooled = Array.make (max 1 (Dag.n_nodes g)) false;
      size = 0;
    }

  let notify r v =
    if not r.pooled.(v) then begin
      r.pooled.(v) <- true;
      r.size <- r.size + 1;
      r.base.notify v
    end

  let rec select r =
    match r.base.select () with
    | None -> None
    | Some v ->
      if r.pooled.(v) then begin
        r.pooled.(v) <- false;
        r.size <- r.size - 1;
        Some v
      end
      else select r

  let withdraw r v =
    if r.pooled.(v) then begin
      r.pooled.(v) <- false;
      r.size <- r.size - 1
    end

  let pooled r v = r.pooled.(v)
  let size r = r.size
end

let run p g =
  let n = Dag.n_nodes g in
  let inst = instantiate p g in
  let fr = Ic_dag.Frontier.create g in
  Ic_dag.Frontier.iter inst.notify fr;
  let order = Array.make n (-1) in
  for t = 0 to n - 1 do
    match inst.select () with
    | None -> invalid_arg "Policy.run: pool exhausted before completion"
    | Some v ->
      order.(t) <- v;
      Ic_dag.Frontier.execute fr ~on_promote:inst.notify v
  done;
  Schedule.of_array_exn g order
