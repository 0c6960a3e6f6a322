module Plan = Ic_fault.Plan
module Heap = Ic_heuristics.Heap
module Monotonic = Ic_prof.Monotonic
module Live = Ic_obs.Live

type config = {
  workers : int;
  k : int;
  mean_service_s : float;
  pareto_alpha : float;
  think_s : float;
  churn : Plan.t;
  seed : int;
}

(* [drive]'s events are immediates: the kind in the low 2 bits, then the
   worker in [worker_bits], then the epoch; [config] bounds [workers] so
   that no two workers share a packed event *)
let worker_bits = 30
let max_workers = 1 lsl worker_bits

let config ?(workers = 1024) ?(k = 8) ?(mean_service_s = 0.01)
    ?(pareto_alpha = 1.5) ?(think_s = 0.001) ?(churn = Plan.none)
    ?(seed = 0x5E4D) () =
  if workers < 1 || workers > max_workers then
    invalid_arg
      (Printf.sprintf "Hammer.config: workers must be in 1..%d" max_workers);
  if k < 1 || k > 0xFFFF then
    invalid_arg "Hammer.config: k must be in 1..65535";
  if (not (Float.is_finite mean_service_s)) || mean_service_s <= 0.0 then
    invalid_arg "Hammer.config: mean_service_s must be finite and positive";
  if (not (Float.is_finite pareto_alpha)) || pareto_alpha <= 1.0 then
    invalid_arg "Hammer.config: pareto_alpha must be finite and > 1";
  if (not (Float.is_finite think_s)) || think_s < 0.0 then
    invalid_arg "Hammer.config: think_s must be finite and >= 0";
  { workers; k; mean_service_s; pareto_alpha; think_s; churn; seed }

(* bounded Pareto: x_m * u^(-1/alpha) has mean x_m * alpha/(alpha-1), so
   scale x_m to hit the configured mean; the 100x cap keeps a single
   draw from freezing a virtual run without flattening the tail *)
let service_s cfg ~worker ~draw =
  let rng = Random.State.make [| cfg.seed; 0x5E; worker; draw |] in
  let u = 1.0 -. Random.State.float rng 1.0 (* (0, 1] *) in
  let x_m = cfg.mean_service_s *. (cfg.pareto_alpha -. 1.0) /. cfg.pareto_alpha in
  Float.min (x_m *. (u ** (-1.0 /. cfg.pareto_alpha))) (100.0 *. cfg.mean_service_s)

type result = {
  n_tasks : int;
  completed : int;
  makespan_s : float;
  wall_s : float;
  server : Server.stats;
  crashed : int;
  disconnects : int;
  lease_grant_p50_s : float;
  lease_grant_p99_s : float;
  task_service_p50_s : float;
  task_service_p99_s : float;
  busy_s : float array;
}

(* a growing float sample buffer; quantiles are selected at the end *)
type samples = { mutable xs : float array; mutable n : int }

let samples () = { xs = Array.make 1024 0.0; n = 0 }

let sample s x =
  if s.n = Array.length s.xs then begin
    let grown = Array.make (2 * s.n) 0.0 in
    Array.blit s.xs 0 grown 0 s.n;
    s.xs <- grown
  end;
  s.xs.(s.n) <- x;
  s.n <- s.n + 1

(* nearest rank of [q] among [n] samples *)
let rank n q =
  max 0 (min (n - 1) (int_of_float (Float.of_int (n - 1) *. q +. 0.5)))

(* sort [a.(lo..hi)] in place: the selection's fallback *)
let sort_range a lo hi =
  let m = Array.sub a lo (hi - lo + 1) in
  Array.sort Float.compare m;
  Array.blit m 0 a lo (hi - lo + 1)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* quickselect over [a.(lo..hi)], which holds no nan, so the native float
   order agrees with [Float.compare]: on return [a.(k)] holds the rank-[k]
   value, with nothing larger to its left and nothing smaller to its
   right. Median-of-three Hoare partitions; a round that keeps more than
   3/4 of its range is unproductive, and after log2 n of those the range
   left is sorted instead, so no input costs more than O(n log n) *)
let select a lo hi k =
  let lo = ref lo and hi = ref hi in
  let strikes = ref (log2 (!hi - !lo + 1)) in
  while !lo < !hi do
    if !strikes = 0 then begin
      sort_range a !lo !hi;
      lo := !hi
    end
    else begin
      let x = a.(!lo) and y = a.(!lo + ((!hi - !lo) / 2)) and z = a.(!hi) in
      let p =
        if x < y then if y < z then y else if x < z then z else x
        else if x < z then x
        else if y < z then z
        else y
      in
      (* two of the three sampled values are <= p and two are >= p, so
         both scans stop inside the range and [j] lands in [lo, hi) *)
      let i = ref (!lo - 1) and j = ref (!hi + 1) and go = ref true in
      while !go do
        incr i;
        while a.(!i) < p do incr i done;
        decr j;
        while a.(!j) > p do decr j done;
        if !i < !j then begin
          let t = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- t
        end
        else go := false
      done;
      let len = !hi - !lo + 1 in
      if k <= !j then hi := !j else lo := !j + 1;
      if 4 * (!hi - !lo + 1) > 3 * len then decr strikes
    end
  done

let quantiles s q1 q2 =
  let a = s.xs and n = s.n in
  if n = 0 then (nan, nan)
  else begin
    (* nan is the least value under [Float.compare]: gather them first *)
    let nans = ref 0 in
    for i = 0 to n - 1 do
      let x = a.(i) in
      if Float.is_nan x then begin
        a.(i) <- a.(!nans);
        a.(!nans) <- x;
        incr nans
      end
    done;
    let at k lo hi =
      if k < !nans then nan
      else begin
        select a (max lo !nans) hi k;
        a.(k)
      end
    in
    let k1 = rank n q1 and k2 = rank n q2 in
    let v1 = at k1 0 (n - 1) in
    (* [a] is now split at [k1]: select [k2] on its side only *)
    let v2 =
      if k2 = k1 then v1
      else if k2 > k1 then at k2 (k1 + 1) (n - 1)
      else at k2 0 (k1 - 1)
    in
    (v1, v2)
  end

(* ------------------------------------------------------------ the fleet *)

module Fleet = struct
  (* worker status *)
  let w_idle = 0
  let w_busy = 1
  let w_offline = 2
  let w_dead = 3
  let w_finished = 4

  type t = {
    cfg : config;
    status : int array;
    epoch : int array;  (* bumped by churn: stale events are dropped *)
    batch : int list array;
    batch_t0 : float array;  (* alloc time of the batch *)
    draws : int array;  (* service draws taken *)
    first_req : float array;  (* first unanswered request, or nan *)
    churn : Plan.Churn.cursor array;
    pending : Plan.Churn.kind array;  (* kind of the next churn event *)
    (* per-worker utilization: a busy interval opens on a Lease and closes
       when the batch empties (or churn/finish cuts it) *)
    busy : float array;
    busy_since : float array;
    grant : samples;
    service : samples;
    mutable n_crashed : int;
    mutable n_disconnects : int;
  }

  let create cfg =
    let w = cfg.workers in
    {
      cfg;
      status = Array.make w w_idle;
      epoch = Array.make w 0;
      batch = Array.make w [];
      batch_t0 = Array.make w 0.0;
      draws = Array.make w 0;
      first_req = Array.make w nan;
      churn = Array.init w (fun i -> Plan.Churn.create cfg.churn ~client:i);
      pending = Array.make w Plan.Churn.Crash;
      busy = Array.make w 0.0;
      busy_since = Array.make w nan;
      grant = samples ();
      service = samples ();
      n_crashed = 0;
      n_disconnects = 0;
    }

  let epoch f i = f.epoch.(i)
  let is_idle f i = f.status.(i) = w_idle
  let is_busy f i = f.status.(i) = w_busy
  let alive f i = is_idle f i || is_busy f i
  let has_more f i = match f.batch.(i) with [] -> false | _ -> true

  (* stagger the opening burst deterministically over one mean service
     time so the first leases do not all carry time 0 *)
  let opening f i =
    let rng = Random.State.make [| f.cfg.seed; 0x0F; i |] in
    Random.State.float rng f.cfg.mean_service_s

  let next_churn f i =
    match Plan.Churn.next f.churn.(i) with
    | None -> infinity
    | Some { Plan.Churn.time; kind } ->
      f.pending.(i) <- kind;
      time

  let end_busy f i t =
    let s = f.busy_since.(i) in
    if not (Float.is_nan s) then begin
      f.busy.(i) <- f.busy.(i) +. (t -. s);
      f.busy_since.(i) <- nan
    end

  let next_service f i t =
    let d = f.draws.(i) in
    f.draws.(i) <- d + 1;
    t +. service_s f.cfg ~worker:i ~draw:d

  let request f i t = if Float.is_nan f.first_req.(i) then f.first_req.(i) <- t

  let lease f i t tasks =
    let r = f.first_req.(i) in
    if not (Float.is_nan r) then begin
      sample f.grant (t -. r);
      f.first_req.(i) <- nan
    end;
    f.status.(i) <- w_busy;
    f.busy_since.(i) <- t;
    f.batch.(i) <- Array.to_list tasks;
    f.batch_t0.(i) <- t;
    next_service f i t

  let take f i t =
    if f.status.(i) <> w_busy then -1
    else
      match f.batch.(i) with
      | [] -> (* batch vanished to churn *) -1
      | task :: rest ->
        f.batch.(i) <- rest;
        sample f.service (t -. f.batch_t0.(i));
        task

  let go_idle f i t =
    end_busy f i t;
    f.status.(i) <- w_idle;
    t +. f.cfg.think_s

  let ack f i t = if has_more f i then next_service f i t else go_idle f i t

  let finish f i t =
    if f.status.(i) <> w_dead then begin
      end_busy f i t;
      f.status.(i) <- w_finished
    end

  (* the worker loses its session and batch: its leases expire and
     re-issue server-side *)
  let drop f i t st =
    f.epoch.(i) <- f.epoch.(i) + 1;
    end_busy f i t;
    f.status.(i) <- st;
    f.batch.(i) <- [];
    f.first_req.(i) <- nan

  let requeue f i t = drop f i t w_idle

  type churned = Unchanged | Crashed | Disconnected | Rejoined

  let churn f i t =
    match f.pending.(i) with
    | Plan.Churn.Crash ->
      if f.status.(i) = w_finished then Unchanged
      else begin
        f.n_crashed <- f.n_crashed + 1;
        drop f i t w_dead;
        Crashed
      end
    | Plan.Churn.Disconnect _ ->
      if not (alive f i) then Unchanged
      else begin
        f.n_disconnects <- f.n_disconnects + 1;
        drop f i t w_offline;
        Disconnected
      end
    | Plan.Churn.Rejoin ->
      if f.status.(i) <> w_offline then Unchanged
      else begin
        f.epoch.(i) <- f.epoch.(i) + 1;
        f.status.(i) <- w_idle;
        Rejoined
      end

  type report = {
    crashed : int;
    disconnects : int;
    grant_p50_s : float;
    grant_p99_s : float;
    service_p50_s : float;
    service_p99_s : float;
    busy_s : float array;
  }

  let close f t =
    for i = 0 to f.cfg.workers - 1 do
      end_busy f i t
    done;
    let grant_p50_s, grant_p99_s = quantiles f.grant 0.5 0.99 in
    let service_p50_s, service_p99_s = quantiles f.service 0.5 0.99 in
    {
      crashed = f.n_crashed;
      disconnects = f.n_disconnects;
      grant_p50_s;
      grant_p99_s;
      service_p50_s;
      service_p99_s;
      busy_s = f.busy;
    }
end

(* ----------------------------------------------------------- the drivers *)

(* close the fleet at the virtual time [now] of the run's last event;
   [live] gets the harness-side instruments, beside the server's own *)
let finish_run ?live srv f ~t_start now =
  let r = Fleet.close f now in
  Option.iter
    (fun l ->
      if now > 0.0 then begin
        let h = Live.histogram l "served.worker_utilization" in
        Array.iter (fun b -> Live.observe h (b /. now)) r.Fleet.busy_s
      end;
      Live.set (Live.gauge l "served.makespan_s") now;
      Live.set
        (Live.gauge l "served.inflight_final")
        (float_of_int (Server.stats srv).Server.inflight))
    live;
  {
    n_tasks = Server.n_tasks srv;
    completed = Server.completed srv;
    makespan_s = now;
    wall_s = Monotonic.now () -. t_start;
    server = Server.stats srv;
    crashed = r.Fleet.crashed;
    disconnects = r.Fleet.disconnects;
    lease_grant_p50_s = r.Fleet.grant_p50_s;
    lease_grant_p99_s = r.Fleet.grant_p99_s;
    task_service_p50_s = r.Fleet.service_p50_s;
    task_service_p99_s = r.Fleet.service_p99_s;
    busy_s = r.Fleet.busy_s;
  }

let fire_expiries srv t =
  while Server.next_expiry srv <= t do
    ignore (Server.expire srv ~now:(Server.next_expiry srv))
  done

(* worker events carry the worker's churn epoch: an event scheduled
   before a disconnect/crash must not fire into the session that follows
   the rejoin, so churn bumps the epoch and stale events are dropped.
   A churn event carries no epoch: its kind waits in the fleet, since a
   worker has at most one churn event outstanding. *)
let ev_request = 0  (* asks for a lease *)
let ev_complete = 1  (* finishes the head of its batch *)
let ev_churn = 2
let ev kind i ep = (((ep lsl worker_bits) lor i) lsl 2) lor kind
let ev_worker e = (e lsr 2) land (max_workers - 1)
let ev_epoch e = e lsr (worker_bits + 2)

let drive ?live srv cfg =
  let t_start = Monotonic.now () in
  let w = cfg.workers in
  let f = Fleet.create cfg in
  let lease_req =
    Array.init w (fun i -> Wire.Lease_req { worker = i; k = cfg.k })
  in
  let events : int Heap.t = Heap.create () in
  let schedule_churn i =
    let t = Fleet.next_churn f i in
    if t < infinity then Heap.push events t (ev ev_churn i 0)
  in
  for i = 0 to w - 1 do
    Heap.push events (Fleet.opening f i) (ev ev_request i 0);
    schedule_churn i
  done;
  let now = ref 0.0 in
  let handle_request i ep t =
    if Fleet.alive f i then begin
      Fleet.request f i t;
      match Server.handle srv ~now:t lease_req.(i) with
      | Wire.Lease { tasks; expires_in_s = _ } ->
        Heap.push events (Fleet.lease f i t tasks) (ev ev_complete i ep)
      | Wire.Retry_after { delay_s } ->
        (* due a constant delay after the non-decreasing clock: in order *)
        Heap.append events (t +. Float.max delay_s 1e-6) (ev ev_request i ep)
      | _ -> Fleet.finish f i t
    end
  in
  let handle_complete_due i ep t =
    let task = Fleet.take f i t in
    if task >= 0 then
      match Server.handle srv ~now:t (Wire.Complete { worker = i; task }) with
      | Wire.Done _ -> Fleet.finish f i t
      | _ ->
        let due = Fleet.ack f i t in
        Heap.push events due
          (ev (if Fleet.has_more f i then ev_complete else ev_request) i ep)
  in
  while (not (Server.is_done srv)) && not (Heap.is_empty events) do
    let t = Heap.min_key events in
    let e = Heap.pop_min events in
    fire_expiries srv t;
    now := t;
    let i = ev_worker e and kind = e land 3 and ep = ev_epoch e in
    if kind = ev_churn then begin
      (match Fleet.churn f i t with
      | Fleet.Rejoined -> Heap.push events t (ev ev_request i (Fleet.epoch f i))
      | _ -> ());
      schedule_churn i
    end
    else if ep = Fleet.epoch f i then
      if kind = ev_request then handle_request i ep t
      else handle_complete_due i ep t
  done;
  finish_run ?live srv f ~t_start !now

let run_virtual ?sink ?live ~server:scfg cfg g =
  drive ?live (Server.create ?sink ?live scfg g) cfg

(* ----------------------------------------------------------- chaos run *)

type chaos_result = {
  base : result;
  c2s : Chaos.stats;
  s2c : Chaos.stats;
  retries : int;
}

(* the chaos loop routes every message through a mangled link, so its
   event vocabulary adds deliveries and reply-timeout probes *)
type cev =
  | C_request of int * int
  | C_complete_due of int * int
  | C_churn of int
  | C_to_server of Wire.msg
  | C_to_worker of int * int * Wire.msg  (* worker, epoch at emission *)
  | C_retry of int * int * int  (* worker, epoch, request seq *)

let run_chaos ?sink ?live ~server:scfg ~wire
    ?(reply_timeout_s = 1.0) cfg g =
  if (not (Float.is_finite reply_timeout_s)) || reply_timeout_s <= 0.0 then
    invalid_arg "Hammer.run_chaos: reply_timeout_s must be finite and positive";
  let t_start = Monotonic.now () in
  let srv = Server.create ?sink ?live scfg g in
  let w = cfg.workers in
  let c2s = Chaos.create wire ~dir:0 in
  let s2c = Chaos.create wire ~dir:1 in
  let f = Fleet.create cfg in
  let retries = ref 0 in
  (* an unanswered request keeps its sequence number until any reply that
     can answer it lands; the timeout probe resends while it is open *)
  let seq = Array.make w 0 in
  let awaiting = Array.make w (-1) in
  let last_msg : Wire.msg option array = Array.make w None in
  let events : cev Heap.t = Heap.create () in
  let schedule_churn i =
    let t = Fleet.next_churn f i in
    if t < infinity then Heap.push events t (C_churn i)
  in
  for i = 0 to w - 1 do
    Heap.push events (Fleet.opening f i) (C_request (i, 0));
    schedule_churn i
  done;
  let now = ref 0.0 in
  let uplink i t msg =
    List.iter
      (fun (dt, m) -> Heap.push events dt (C_to_server m))
      (Chaos.send c2s ~now:t msg);
    Heap.push events (t +. reply_timeout_s)
      (C_retry (i, Fleet.epoch f i, seq.(i)))
  in
  let transmit i t msg =
    seq.(i) <- seq.(i) + 1;
    awaiting.(i) <- seq.(i);
    last_msg.(i) <- Some msg;
    uplink i t msg
  in
  let reset_session i =
    awaiting.(i) <- -1;
    last_msg.(i) <- None
  in
  let deliver i t m =
    let ep = Fleet.epoch f i in
    match m with
    | Wire.Done _ ->
      reset_session i;
      Fleet.finish f i t
    (* only a worker with an open request accepts a reply, and a Lease or
       Retry_after only when idle: a duplicated or stale Lease is dropped
       here and its tasks re-issue by expiry *)
    | _ when awaiting.(i) < 0 -> ()
    | Wire.Lease { tasks; expires_in_s = _ } when Fleet.is_idle f i ->
      reset_session i;
      Heap.push events (Fleet.lease f i t tasks) (C_complete_due (i, ep))
    | Wire.Retry_after { delay_s } when Fleet.is_idle f i ->
      reset_session i;
      Heap.append events (t +. Float.max delay_s 1e-6) (C_request (i, ep))
    | Wire.Ack when Fleet.is_busy f i ->
      reset_session i;
      let due = Fleet.ack f i t in
      Heap.push events due
        (if Fleet.has_more f i then C_complete_due (i, ep)
         else C_request (i, ep))
    | _ -> ()
  in
  while (not (Server.is_done srv)) && not (Heap.is_empty events) do
    let t = Heap.min_key events in
    let ev = Heap.pop_min events in
    fire_expiries srv t;
    now := t;
    match ev with
    | C_request (i, ep) ->
      if ep = Fleet.epoch f i && Fleet.is_idle f i && awaiting.(i) < 0
      then begin
        Fleet.request f i t;
        transmit i t (Wire.Lease_req { worker = i; k = cfg.k })
      end
    | C_complete_due (i, ep) ->
      if ep = Fleet.epoch f i then begin
        let task = Fleet.take f i t in
        if task >= 0 then transmit i t (Wire.Complete { worker = i; task })
      end
    | C_churn i ->
      (match Fleet.churn f i t with
      | Fleet.Crashed | Fleet.Disconnected -> reset_session i
      | Fleet.Rejoined -> Heap.push events t (C_request (i, Fleet.epoch f i))
      | Fleet.Unchanged -> ());
      schedule_churn i
    | C_to_server m -> (
      let reply = Server.handle srv ~now:t m in
      let target =
        match m with
        | Wire.Hello { worker }
        | Wire.Lease_req { worker; _ }
        | Wire.Complete { worker; _ }
        | Wire.Heartbeat { worker } ->
          worker
        | _ -> -1
      in
      if target >= 0 && target < w then
        List.iter
          (fun (dt, r) ->
            Heap.push events dt (C_to_worker (target, Fleet.epoch f target, r)))
          (Chaos.send s2c ~now:t reply))
    | C_to_worker (i, ep, m) -> if ep = Fleet.epoch f i then deliver i t m
    | C_retry (i, ep, s) ->
      (* the request is still open: the frame (or its reply) died on
         the wire — resend the same message as a fresh frame *)
      if ep = Fleet.epoch f i && awaiting.(i) = s && Fleet.alive f i then begin
        incr retries;
        match last_msg.(i) with
        | Some m -> uplink i t m
        | None -> ()
      end
  done;
  let base = finish_run ?live srv f ~t_start !now in
  Option.iter
    (fun l ->
      let link name (s : Chaos.stats) =
        let c field v =
          Live.incr
            (Live.counter l (Printf.sprintf "served.chaos.%s.%s" name field))
            v
        in
        c "frames" s.Chaos.frames;
        c "delivered" s.Chaos.delivered;
        c "dropped" s.Chaos.dropped;
        c "duplicated" s.Chaos.duplicated;
        c "reordered" s.Chaos.reordered;
        c "truncated" s.Chaos.truncated;
        c "corrupted" s.Chaos.corrupted;
        c "reader_errors" s.Chaos.reader_errors;
        c "resyncs" s.Chaos.resyncs
      in
      link "c2s" (Chaos.stats c2s);
      link "s2c" (Chaos.stats s2c);
      Live.incr (Live.counter l "served.chaos.retries") !retries)
    live;
  { base; c2s = Chaos.stats c2s; s2c = Chaos.stats s2c; retries = !retries }
