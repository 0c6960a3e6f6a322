module Dag = Ic_dag.Dag
module Shard_view = Ic_dag.Shard_view
module Trace = Ic_obs.Trace
module Live = Ic_obs.Live

type order = Steal | Ic_priority

type stats = {
  domains : int;
  wall_s : float;
  tasks : int;
  steals : int;
  steal_attempts : int;
  overflows : int;
  parks : int;
  per_domain_tasks : int array;
}

let default_domains () =
  match Sys.getenv_opt "IC_PAR_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d > 0 -> d
    | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* The shared spill target for full deques: a mutex-protected stack. Cold
   by design — it only sees traffic when a deque's fixed buffer fills. *)
module Overflow = struct
  type t = { lock : Mutex.t; mutable items : int list }

  let create () = { lock = Mutex.create (); items = [] }

  let push t v =
    Mutex.lock t.lock;
    t.items <- v :: t.items;
    Mutex.unlock t.lock

  let pop t =
    if t.items == [] then None
    else begin
      Mutex.lock t.lock;
      let r =
        match t.items with
        | [] -> None
        | v :: rest ->
          t.items <- rest;
          Some v
      in
      Mutex.unlock t.lock;
      r
    end
end

(* per-worker mutable state, touched only by its own domain *)
type worker = {
  id : int;
  mutable tasks : int;
  mutable steals : int;
  mutable steal_attempts : int;
  mutable overflows : int;
  mutable parks : int;
  mutable rng : int;  (* xorshift state for victim selection *)
  trace : Trace.t option;
  task_s : Live.histogram option;  (* shared by all workers *)
}

let xorshift w =
  let x = w.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  w.rng <- (if x = 0 then w.id + 1 else x);
  w.rng

(* The two ready-set shapes behind one tiny interface: [push_ready] from
   the worker that made the task ready, [pop_own] from the owner,
   [steal_from] a victim (non-blocking). *)
type ready =
  | Deques of Deque.t array * Overflow.t
  | Shards of Pool.t

let push_ready ready w v =
  match ready with
  | Deques (dq, ov) ->
    if not (Deque.push dq.(w.id) v) then begin
      w.overflows <- w.overflows + 1;
      Overflow.push ov v
    end
  | Shards p -> Pool.push p ~shard:w.id v

let pop_own ready w =
  match ready with
  | Deques (dq, ov) -> (
    match Deque.pop dq.(w.id) with
    | Some _ as r -> r
    | None -> Overflow.pop ov)
  | Shards p -> Pool.pop p ~shard:w.id

let steal_from ready victim =
  match ready with
  | Deques (dq, _) -> Deque.steal dq.(victim)
  | Shards p -> Pool.try_steal p ~shard:victim

(* an idle worker's k-th consecutive park past the spin threshold
   sleeps [min park_max (k * park_min)] seconds *)
let park_min = 2e-6
let park_max = 1e-3

(* slots per deque; a full deque spills to the overflow stack *)
let deque_capacity = 8192

let run ?domains ?(order = Steal) ?priority ?sink ?live g ~task =
  let n = Dag.n_nodes g in
  let n_domains =
    max 1 (match domains with Some d -> d | None -> default_domains ())
  in
  let task_s = Option.map (fun l -> Live.histogram l "par.task_s") live in
  (* the counts reach [live] once, at the join, added so a registry
     shared by several runs accumulates *)
  let record_live (st : stats) =
    match live with
    | None -> ()
    | Some l ->
      let c name v = Live.incr (Live.counter l name) v in
      c "par.tasks" st.tasks;
      c "par.steals" st.steals;
      c "par.steal_attempts" st.steal_attempts;
      c "par.overflows" st.overflows;
      c "par.parks" st.parks;
      Live.set (Live.gauge l "par.domains") (float_of_int st.domains);
      Live.set (Live.gauge l "par.wall_s") st.wall_s
  in
  if n = 0 then begin
    let st =
      {
        domains = n_domains;
        wall_s = 0.0;
        tasks = 0;
        steals = 0;
        steal_attempts = 0;
        overflows = 0;
        parks = 0;
        per_domain_tasks = Array.make n_domains 0;
      }
    in
    record_live st;
    st
  end
  else begin
    (match priority with
    | Some p when Array.length p <> n ->
      invalid_arg "Runtime.run: priority length mismatch"
    | _ -> ());
    let ready =
      match order with
      | Steal ->
        Deques
          ( Array.init n_domains (fun _ ->
                Deque.create ~capacity:deque_capacity),
            Overflow.create () )
      | Ic_priority ->
        let rank =
          match priority with Some p -> p | None -> Array.init n (fun v -> v)
        in
        Shards (Pool.create ~shards:n_domains ~rank)
    in
    let view = Shard_view.create g in
    let workers =
      Array.init n_domains (fun id ->
          {
            id;
            tasks = 0;
            steals = 0;
            steal_attempts = 0;
            overflows = 0;
            parks = 0;
            rng = (id * 0x9e3779b9) lor 1;
            trace =
              (match sink with None -> None | Some _ -> Some (Trace.create ()));
            task_s;
          })
    in
    (* seed the sources round-robin; no domain is running yet, so pushing
       into every deque from here is still an owner push (the spawn
       establishes the happens-before) *)
    let seed = ref 0 in
    Shard_view.iter_initial view (fun ~shard:_ v ->
        push_ready ready workers.(!seed mod n_domains) v;
        incr seed);
    (* one ready callback per worker, built before any domain runs *)
    let on_ready =
      Array.map
        (fun w ->
          let push ~shard:_ s = push_ready ready w s in
          push)
        workers
    in
    let t0 = Ic_prof.Monotonic.now () in
    (* a worker records into its own buffer, stamped since [t0] *)
    let emit w kind v =
      match w.trace with
      | None -> ()
      | Some tr ->
        Trace.emit tr kind ~time:(Ic_prof.Monotonic.now () -. t0) ~a:v ~b:w.id
    in
    let run_task w v =
      let lt0 =
        match w.task_s with None -> 0.0 | Some _ -> Ic_prof.Monotonic.now ()
      in
      emit w Trace.Task_alloc v;
      task v;
      emit w Trace.Task_complete v;
      (match w.task_s with
      | None -> ()
      | Some h -> Live.observe h (Ic_prof.Monotonic.now () -. lt0));
      w.tasks <- w.tasks + 1;
      Shard_view.complete view v ~ready:on_ready.(w.id)
    in
    let worker_loop w =
      let backoff = ref 0 in
      let running = ref true in
      while !running do
        match pop_own ready w with
        | Some v ->
          backoff := 0;
          run_task w v
        | None ->
          if Shard_view.is_complete view then running := false
          else begin
            (* sweep up to n_domains - 1 random victims *)
            let found = ref None in
            let tries = ref 0 in
            while !found = None && !tries < n_domains - 1 do
              incr tries;
              let victim =
                let r = xorshift w mod (n_domains - 1) in
                if r >= w.id then r + 1 else r
              in
              w.steal_attempts <- w.steal_attempts + 1;
              match steal_from ready victim with
              | Some v ->
                w.steals <- w.steals + 1;
                found := Some v
              | None -> ()
            done;
            match !found with
            | Some v ->
              backoff := 0;
              run_task w v
            | None ->
              (* nothing anywhere: spin briefly, then sleep — on an
                 oversubscribed machine the sleep is what lets the domain
                 actually holding work get a timeslice *)
              incr backoff;
              if !backoff <= 16 then
                for _ = 1 to !backoff * 8 do
                  Domain.cpu_relax ()
                done
              else begin
                w.parks <- w.parks + 1;
                Unix.sleepf
                  (Float.min park_max (float_of_int !backoff *. park_min))
              end
          end
      done
    in
    let spawned =
      Array.init (n_domains - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop workers.(i + 1)))
    in
    worker_loop workers.(0);
    Array.iter Domain.join spawned;
    let wall_s = Ic_prof.Monotonic.now () -. t0 in
    (* merge the per-domain trace buffers into the caller's sink,
       time-sorted, now that only this domain is running *)
    (match sink with
    | None -> ()
    | Some tr ->
      let events =
        Array.concat
          (Array.to_list
             (Array.map
                (fun w ->
                  match w.trace with
                  | None -> [||]
                  | Some t -> Trace.to_array t)
                workers))
      in
      Array.stable_sort
        (fun (a : Trace.event) b -> compare a.time b.time)
        events;
      Array.iter
        (fun (e : Trace.event) ->
          Trace.emit tr e.kind ~time:e.time ~a:e.a ~b:e.b)
        events);
    let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
    let st =
      {
        domains = n_domains;
        wall_s;
        tasks = sum (fun w -> w.tasks);
        steals = sum (fun w -> w.steals);
        steal_attempts = sum (fun w -> w.steal_attempts);
        overflows = sum (fun w -> w.overflows);
        parks = sum (fun w -> w.parks);
        per_domain_tasks = Array.map (fun w -> w.tasks) workers;
      }
    in
    record_live st;
    st
  end

let executor ?domains ?order ?priority ?sink ?live ?on_stats () =
 fun g step ->
  let st = run ?domains ?order ?priority ?sink ?live g ~task:step in
  match on_stats with None -> () | Some f -> f st
