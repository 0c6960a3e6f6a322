module Dag = Ic_dag.Dag
module Frontier = Ic_dag.Frontier
module Policy = Ic_heuristics.Policy
module Heap = Ic_heuristics.Heap
module Trace = Ic_obs.Trace
module Live = Ic_obs.Live
module Plan = Ic_fault.Plan
module Recovery = Ic_fault.Recovery
module Span = Ic_prof.Span

type config = {
  n_clients : int;
  speed : int -> float;
  jitter : float;
  comm_time : float;
  seed : int;
  faults : Plan.t;
  recovery : Recovery.t;
}

let config ?(n_clients = 4) ?(speed = fun _ -> 1.0) ?(jitter = 0.25)
    ?(comm_time = 0.0) ?(seed = 0x5EED) ?(faults = Plan.none)
    ?(recovery = Recovery.default) () =
  if n_clients < 1 then invalid_arg "Simulator.config: need a client";
  if comm_time < 0.0 then invalid_arg "Simulator.config: negative comm time";
  if (not (Float.is_finite jitter)) || jitter < 0.0 then
    invalid_arg "Simulator.config: jitter must be finite and non-negative";
  {
    n_clients;
    speed;
    jitter;
    comm_time;
    seed;
    faults;
    recovery;
  }

type abort_reason = Retry_budget of int | Deadline | No_progress
type outcome = Finished | Aborted of abort_reason

type result = {
  makespan : float;
  busy_time : float;
  utilization : float;
  stalls : int;
  stall_time : float;
  failures : int;
  comm_total : float;
  mean_eligible : float;
  allocation_order : int list;
  completion_order : int list;
  outcome : outcome;
  unfinished : int list;
  timeouts : int;
  retries : int;
  lost : int;
  speculations : int;
  cancelled : int;
  crashes : int;
  disconnects : int;
}

(* One client-side run of one task. An attempt is [closed] once it no
   longer occupies a client (natural end, cancellation, crash), and
   [resolved] once the server has reacted to it (accepted the result,
   scheduled recovery, or cancelled it). A lost attempt closes without
   resolving: the server only finds out through its liveness timeout. *)
type attempt = {
  at_task : int;
  at_client : int;
  at_alloc : float;
  at_lost : bool;
  at_failed : bool;
  mutable at_closed : bool;
  mutable at_resolved : bool;
}

type ev =
  | Ev_complete of int  (** attempt *)
  | Ev_timeout of int  (** attempt *)
  | Ev_spec of int  (** attempt *)
  | Ev_crash of int  (** client *)
  | Ev_disconnect of int * float  (** client, downtime (from the churn stream) *)
  | Ev_rejoin of int  (** client *)
  | Ev_retry of int  (** task *)

(* client states; values >= 0 mean Busy running that attempt id *)
let st_idle = -1
let st_waiting = -2
let st_offline = -3
let st_dead = -4

let run ?sink ?live cfg policy ~workload g =
  Span.time "sim.run" @@ fun () ->
  Span.enter "sim.setup";
  let n = Dag.n_nodes g in
  let work = workload g in
  let speeds =
    Array.init cfg.n_clients (fun i ->
        let s = cfg.speed i in
        if (not (Float.is_finite s)) || s <= 0.0 then
          invalid_arg
            (Printf.sprintf
               "Simulator.run: speed of client %d is %g, must be finite and \
                positive"
               i s);
        s)
  in
  let rc = cfg.recovery in
  let rng = Random.State.make [| cfg.seed |] in
  let robust = Policy.Robust.create policy g in
  let fr = Frontier.create g in
  let now = ref 0.0 in
  (* the histograms are the only instruments fed per event; the counts
     reach [live] once, from [result], when the run ends *)
  let histogram name = Option.map (fun l -> Live.histogram l name) live in
  let h_latency = histogram "sim.task_latency" in
  let h_e2e = histogram "sim.task_e2e_latency" in
  let h_queue_depth = histogram "sim.queue_depth" in
  let h_stall = histogram "sim.stall_duration" in
  let observe h x = match h with None -> () | Some h -> Live.observe h x in
  (* every event goes through [emit], stamped with the simulated clock
     unless [time] says otherwise; without a sink it is one branch *)
  let emit ?(time = !now) kind ~a ~b =
    match sink with None -> () | Some tr -> Trace.emit tr kind ~time ~a ~b
  in
  let trace_eligible () =
    emit Trace.Eligible_count ~a:(Policy.Robust.size robust) ~b:0
  in
  (* the frontier's step callback, built once: a promoted node is pushed
     on the simulated clock, then offered to the policy *)
  let on_promote v =
    emit Trace.Frontier_push ~a:v ~b:0;
    Policy.Robust.notify robust v
  in
  (* the initial sources are eligible before anything executes *)
  Frontier.iter on_promote fr;
  trace_eligible ();
  let events : ev Heap.t = Heap.create () in
  (* per-client state *)
  let busy = Array.make cfg.n_clients 0.0 in
  let st = Array.make cfg.n_clients st_idle in
  let stalled_since = Array.make cfg.n_clients nan in
  let waiting = Queue.create () in
  (* per-task state *)
  let computed_by = Array.make (max n 1) (-1) in
  let attempts_made = Array.make (max n 1) 0 in
  let replicas = Array.make (max n 1) 0 in
  let open_attempts = Array.make (max n 1) [] in
  let pending = Array.make (max n 1) false in
  let retries_of = Array.make (max n 1) 0 in
  let first_alloc = Array.make (max n 1) nan in
  (* attempt table, growable *)
  let dummy =
    {
      at_task = -1;
      at_client = -1;
      at_alloc = 0.0;
      at_lost = false;
      at_failed = false;
      at_closed = true;
      at_resolved = true;
    }
  in
  let atts = ref (Array.make 64 dummy) in
  let n_atts = ref 0 in
  let att id = !atts.(id) in
  let new_attempt a =
    if !n_atts = Array.length !atts then begin
      let bigger = Array.make (2 * !n_atts) dummy in
      Array.blit !atts 0 bigger 0 !n_atts;
      atts := bigger
    end;
    let id = !n_atts in
    !atts.(id) <- a;
    incr n_atts;
    id
  in
  (* counters *)
  let stalls = ref 0 in
  let stall_time = ref 0.0 in
  let eligible_integral = ref 0.0 in
  let inflight = ref 0 in
  let completed = ref 0 in
  let failures = ref 0 in
  let timeouts = ref 0 in
  let retries = ref 0 in
  let lost = ref 0 in
  let speculations = ref 0 in
  let cancelled = ref 0 in
  let crashes = ref 0 in
  let disconnects = ref 0 in
  let comm_total = ref 0.0 in
  let allocation_order = ref [] in
  let completion_order = ref [] in
  let abort = ref None in
  let end_stall c =
    let d = !now -. stalled_since.(c) in
    stall_time := !stall_time +. d;
    stalled_since.(c) <- nan;
    emit Trace.Client_resume ~a:c ~b:0;
    observe h_stall d
  in
  let close_attempt id =
    let a = att id in
    a.at_closed <- true;
    busy.(a.at_client) <- busy.(a.at_client) +. (!now -. a.at_alloc);
    replicas.(a.at_task) <- replicas.(a.at_task) - 1;
    if replicas.(a.at_task) = 0 then decr inflight
  in
  let launch client v =
    allocation_order := v :: !allocation_order;
    let attempt_no = attempts_made.(v) in
    attempts_made.(v) <- attempt_no + 1;
    let fate = Plan.attempt cfg.faults ~task:v ~attempt:attempt_no in
    let noise = 1.0 +. (cfg.jitter *. Random.State.float rng 1.0) in
    (* parents computed elsewhere must ship their results over the
       Internet; a source's input comes from the server (one transfer) *)
    let transfers =
      if cfg.comm_time = 0.0 then 0
      else if Dag.is_source g v then 1
      else
        Dag.fold_pred g v 0 (fun acc p ->
            if computed_by.(p) = client then acc else acc + 1)
    in
    let comm = cfg.comm_time *. float_of_int transfers in
    comm_total := !comm_total +. comm;
    let base = work v /. speeds.(client) in
    let duration = (base *. noise *. fate.Plan.slowdown) +. comm in
    (* what a healthy attempt should take — the server's yardstick for
       liveness timeouts and speculation *)
    let expected = base +. comm in
    let id =
      new_attempt
        {
          at_task = v;
          at_client = client;
          at_alloc = !now;
          at_lost = fate.Plan.lost;
          at_failed = fate.Plan.failed;
          at_closed = false;
          at_resolved = false;
        }
    in
    st.(client) <- id;
    replicas.(v) <- replicas.(v) + 1;
    if replicas.(v) = 1 then incr inflight;
    open_attempts.(v) <- id :: open_attempts.(v);
    if Float.is_nan first_alloc.(v) then first_alloc.(v) <- !now;
    emit Trace.Task_alloc ~a:v ~b:client;
    emit Trace.Task_start ~time:(!now +. comm) ~a:v ~b:client;
    trace_eligible ();
    Heap.push events (!now +. duration) (Ev_complete id);
    if Recovery.timeouts_enabled rc then
      Heap.push events (!now +. Recovery.timeout_after rc ~expected)
        (Ev_timeout id);
    if Recovery.speculation_enabled rc then
      Heap.push events (!now +. Recovery.speculate_after rc ~expected)
        (Ev_spec id)
  in
  let park client =
    st.(client) <- st_waiting;
    if n - !completed - !inflight > 0 then begin
      (* a genuine gridlock event: work remains but none is allocatable *)
      incr stalls;
      if Float.is_nan stalled_since.(client) then begin
        stalled_since.(client) <- !now;
        emit Trace.Client_stall ~a:client ~b:0
      end
    end;
    Queue.add client waiting
  in
  let allocate client =
    if Policy.Robust.size robust > 0 then begin
      (* the depth the server chose from, before removing the pick *)
      observe h_queue_depth (float_of_int (Policy.Robust.size robust));
      match Policy.Robust.select robust with
      | Some v -> launch client v
      | None -> park client
    end
    else park client
  in
  (* serve parked clients; they keep waiting (and keep their queue slot)
     until the pool has work, but a stall period ends as soon as every
     remaining task is in flight — nothing can appear until an event *)
  let wake () =
    let waiters = Queue.length waiting in
    for _ = 1 to waiters do
      let c = Queue.pop waiting in
      if st.(c) = st_waiting then
        if Policy.Robust.size robust > 0 then begin
          if not (Float.is_nan stalled_since.(c)) then end_stall c;
          st.(c) <- st_idle;
          allocate c
        end
        else begin
          if
            n - !completed - !inflight <= 0
            && not (Float.is_nan stalled_since.(c))
          then end_stall c;
          Queue.add c waiting
        end
    done
  in
  (* an attempt covers its task while it is still expected to deliver:
     open and unresolved. A timed-out straggler still occupying its client
     is open but presumed dead, so it must not suppress recovery. *)
  let covered v =
    List.exists
      (fun id ->
        let a = att id in
        (not a.at_closed) && not a.at_resolved)
      open_attempts.(v)
  in
  let schedule_retry v =
    if
      (not (Frontier.is_executed fr v))
      && (not pending.(v))
      && not (Policy.Robust.pooled robust v)
    then begin
      let k = retries_of.(v) in
      if k >= rc.Recovery.max_retries then abort := Some (Retry_budget v)
      else begin
        retries_of.(v) <- k + 1;
        incr retries;
        emit Trace.Retry_scheduled ~a:v ~b:k;
        let d = Recovery.backoff rc ~task:v ~retry:k in
        if d > 0.0 then begin
          pending.(v) <- true;
          Heap.push events (!now +. d) (Ev_retry v)
        end
        else begin
          Policy.Robust.notify robust v;
          trace_eligible ()
        end
      end
    end
  in
  let handle_complete id =
    let a = att id in
    if not a.at_closed then begin
      let c = a.at_client in
      let v = a.at_task in
      close_attempt id;
      st.(c) <- st_idle;
      observe h_latency (!now -. a.at_alloc);
      let freed = ref [] in
      if Frontier.is_executed fr v then begin
        (* a replica of an already-finished task ran to term: discard *)
        a.at_resolved <- true;
        incr cancelled;
        emit Trace.Replica_cancelled ~a:v ~b:c
      end
      else if a.at_lost then begin
        (* the result vanished in transit: the server stays unaware and
           only the liveness timeout can recover the task *)
        incr lost;
        emit Trace.Task_fail ~a:v ~b:c
      end
      else if a.at_failed then begin
        incr failures;
        emit Trace.Task_fail ~a:v ~b:c;
        if not a.at_resolved then begin
          a.at_resolved <- true;
          (* an unresolved live replica covers the task; its own fate
             (completion, failure, or timeout) will trigger recovery if
             it too goes wrong *)
          if not (covered v) then schedule_retry v
        end
      end
      else begin
        (* first result wins *)
        a.at_resolved <- true;
        incr completed;
        computed_by.(v) <- c;
        completion_order := v :: !completion_order;
        emit Trace.Task_complete ~a:v ~b:c;
        observe h_e2e (!now -. first_alloc.(v));
        if Policy.Robust.pooled robust v then Policy.Robust.withdraw robust v;
        pending.(v) <- false;
        emit Trace.Frontier_pop ~a:v ~b:0;
        Frontier.execute fr ~on_promote v;
        (* redundant replicas are cancelled, their clients freed *)
        List.iter
          (fun id' ->
            if id' <> id then begin
              let a' = att id' in
              if not a'.at_closed then begin
                close_attempt id';
                a'.at_resolved <- true;
                st.(a'.at_client) <- st_idle;
                freed := a'.at_client :: !freed;
                incr cancelled;
                emit Trace.Replica_cancelled ~a:v ~b:a'.at_client
              end
            end)
          open_attempts.(v);
        open_attempts.(v) <- [];
        trace_eligible ()
      end;
      (* serve clients that were stalled first, then the freed ones *)
      wake ();
      allocate c;
      List.iter allocate (List.rev !freed)
    end
  in
  let handle_timeout id =
    let a = att id in
    let v = a.at_task in
    if (not (Frontier.is_executed fr v)) && not a.at_resolved then begin
      (* presumed lost; a late result may still arrive and win *)
      a.at_resolved <- true;
      incr timeouts;
      emit Trace.Timeout_fired ~a:v ~b:a.at_client;
      if not (covered v) then schedule_retry v;
      wake ()
    end
  in
  let handle_spec id =
    let a = att id in
    let v = a.at_task in
    if
      (not a.at_closed)
      && (not a.at_resolved)
      && (not (Frontier.is_executed fr v))
      && replicas.(v) < rc.Recovery.max_replicas
      && (not (Policy.Robust.pooled robust v))
      && not pending.(v)
    then begin
      incr speculations;
      emit Trace.Speculative_launch ~a:v ~b:0;
      Policy.Robust.notify robust v;
      trace_eligible ();
      wake ()
    end
  in
  let drop_client c ~transient =
    (* whatever the client held dies with it; the server stays unaware
       until a liveness timeout fires for the orphaned attempt *)
    if st.(c) >= 0 then close_attempt st.(c);
    if not (Float.is_nan stalled_since.(c)) then end_stall c;
    st.(c) <- (if transient then st_offline else st_dead);
    emit Trace.Client_crash ~a:c ~b:(if transient then 1 else 0)
  in
  let handle_crash c =
    if st.(c) <> st_dead then begin
      incr crashes;
      drop_client c ~transient:false
    end
  in
  let handle_disconnect c =
    (* the matching rejoin arrives from the churn stream on its own;
       nothing to re-draw or schedule here *)
    if st.(c) <> st_dead && st.(c) <> st_offline then begin
      incr disconnects;
      drop_client c ~transient:true
    end
  in
  let handle_rejoin c =
    if st.(c) = st_offline then begin
      st.(c) <- st_idle;
      emit Trace.Client_rejoin ~a:c ~b:0;
      allocate c
    end
  in
  let handle_retry_release v =
    if pending.(v) then begin
      pending.(v) <- false;
      if
        (not (Frontier.is_executed fr v))
        && not (Policy.Robust.pooled robust v)
      then begin
        Policy.Robust.notify robust v;
        trace_eligible ();
        wake ()
      end
    end
  in
  Span.leave () (* sim.setup *);
  (* schedule each client's fate, then hand out the initial work: every
     crash/disconnect/rejoin comes from the plan's churn stream, one
     pending event per client at a time *)
  let churn =
    Array.init cfg.n_clients (fun c -> Plan.Churn.create cfg.faults ~client:c)
  in
  let schedule_churn c =
    match Plan.Churn.next churn.(c) with
    | None -> ()
    | Some { Plan.Churn.time; kind } ->
      Heap.push events time
        (match kind with
        | Plan.Churn.Crash -> Ev_crash c
        | Plan.Churn.Disconnect downtime -> Ev_disconnect (c, downtime)
        | Plan.Churn.Rejoin -> Ev_rejoin c)
  in
  for c = 0 to cfg.n_clients - 1 do
    schedule_churn c
  done;
  for c = 0 to cfg.n_clients - 1 do
    allocate c
  done;
  let deadline = rc.Recovery.deadline in
  while !abort = None && !completed < n do
    if Heap.is_empty events then
      (* no event can ever re-pool the remaining work: clean abort *)
      abort := Some No_progress
    else begin
      let t = Heap.min_key events in
      let ev = Heap.pop_min events in
      if t > deadline then begin
        eligible_integral :=
          !eligible_integral
          +. (float_of_int (Policy.Robust.size robust) *. (deadline -. !now));
        now := deadline;
        abort := Some Deadline
      end
      else begin
        eligible_integral :=
          !eligible_integral
          +. (float_of_int (Policy.Robust.size robust) *. (t -. !now));
        now := t;
        match ev with
        | Ev_complete id -> handle_complete id
        | Ev_timeout id -> handle_timeout id
        | Ev_spec id -> handle_spec id
        | Ev_crash c ->
          handle_crash c;
          schedule_churn c
        | Ev_disconnect (c, _downtime) ->
          handle_disconnect c;
          schedule_churn c
        | Ev_rejoin c ->
          handle_rejoin c;
          schedule_churn c
        | Ev_retry v -> handle_retry_release v
      end
    end
  done;
  Span.enter "sim.finalize";
  (* close stall periods that were still open when the run ended *)
  for c = 0 to cfg.n_clients - 1 do
    if not (Float.is_nan stalled_since.(c)) then end_stall c
  done;
  let unfinished = ref [] in
  for v = n - 1 downto 0 do
    if not (Frontier.is_executed fr v) then unfinished := v :: !unfinished
  done;
  let makespan = !now in
  let busy_time = Array.fold_left ( +. ) 0.0 busy in
  let result =
    {
      makespan;
      busy_time;
      (* makespan = 0 only for the empty dag (or all-zero work): report
         well-defined zeros rather than dividing by it *)
      utilization =
        (if makespan > 0.0 then
           busy_time /. (float_of_int cfg.n_clients *. makespan)
         else 0.0);
      stalls = !stalls;
      stall_time = !stall_time;
      failures = !failures;
      comm_total = !comm_total;
      mean_eligible =
        (if makespan > 0.0 then !eligible_integral /. makespan else 0.0);
      allocation_order = List.rev !allocation_order;
      completion_order = List.rev !completion_order;
      outcome =
        (match !abort with None -> Finished | Some reason -> Aborted reason);
      unfinished = !unfinished;
      timeouts = !timeouts;
      retries = !retries;
      lost = !lost;
      speculations = !speculations;
      cancelled = !cancelled;
      crashes = !crashes;
      disconnects = !disconnects;
    }
  in
  Span.enter "sim.obs_export";
  (match live with
  | None -> ()
  | Some m ->
    (* added, not set: a registry shared by several runs accumulates *)
    let c name v = Live.incr (Live.counter m name) v in
    c "sim.tasks_allocated" (List.length result.allocation_order);
    c "sim.tasks_completed" !completed;
    c "sim.tasks_failed" result.failures;
    c "sim.stalls" result.stalls;
    c "sim.timeouts" result.timeouts;
    c "sim.retries" result.retries;
    c "sim.tasks_lost" result.lost;
    c "sim.speculations" result.speculations;
    c "sim.replicas_cancelled" result.cancelled;
    c "sim.client_crashes" result.crashes;
    c "sim.client_disconnects" result.disconnects;
    Live.set (Live.gauge m "sim.makespan") result.makespan;
    Live.set (Live.gauge m "sim.utilization") result.utilization;
    Live.set (Live.gauge m "sim.mean_eligible") result.mean_eligible;
    Live.set
      (Live.gauge m "sim.unfinished")
      (float_of_int (List.length result.unfinished));
    Array.iteri
      (fun i b ->
        Live.set
          (Live.gauge m (Printf.sprintf "sim.client%d.busy_fraction" i))
          (if makespan > 0.0 then b /. makespan else 0.0))
      busy);
  Span.leave () (* sim.obs_export *);
  Span.leave () (* sim.finalize *);
  result

let pp_outcome ppf = function
  | Finished -> Format.pp_print_string ppf "finished"
  | Aborted (Retry_budget v) ->
    Format.fprintf ppf "aborted (retry budget exhausted on task %d)" v
  | Aborted Deadline -> Format.pp_print_string ppf "aborted (deadline)"
  | Aborted No_progress -> Format.pp_print_string ppf "aborted (no progress)"

let pp_result ppf r =
  Format.pp_open_vbox ppf 0;
  Format.fprintf ppf
    "makespan      %.3f@,utilization   %.1f%%@,stalls        %d@,\
     stall time    %.3f@,failures      %d@,comm time     %.3f@,\
     mean eligible %.2f"
    r.makespan (100.0 *. r.utilization) r.stalls r.stall_time r.failures
    r.comm_total r.mean_eligible;
  if
    r.timeouts > 0 || r.retries > 0 || r.lost > 0 || r.speculations > 0
    || r.cancelled > 0 || r.crashes > 0 || r.disconnects > 0
  then
    Format.fprintf ppf
      "@,timeouts      %d@,retries       %d@,lost          %d@,\
       speculations  %d@,cancelled     %d@,crashes       %d@,\
       disconnects   %d"
      r.timeouts r.retries r.lost r.speculations r.cancelled r.crashes
      r.disconnects;
  (match r.outcome with
  | Finished -> ()
  | Aborted _ ->
    Format.fprintf ppf "@,outcome       %a@,unfinished    %d task(s)"
      pp_outcome r.outcome
      (List.length r.unfinished));
  Format.pp_close_box ppf ()
