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

(* worker status *)
let w_idle = 0
let w_busy = 1
let w_offline = 2
let w_dead = 3
let w_finished = 4

(* worker events carry the worker's churn epoch: an event scheduled
   before a disconnect/crash must not fire into the session that follows
   the rejoin, so churn bumps the epoch and stale events are dropped.
   A churn event carries no epoch: its kind waits in a per-worker slot,
   since a worker has at most one churn event outstanding. *)
let ev_request = 0  (* asks for a lease *)
let ev_complete = 1  (* finishes the head of its batch *)
let ev_churn = 2
let ev kind i ep = (((ep lsl worker_bits) lor i) lsl 2) lor kind
let ev_worker e = (e lsr 2) land (max_workers - 1)
let ev_epoch e = e lsr (worker_bits + 2)

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

(* the harness-side end-of-run instruments, beside the server's own *)
let record_run l srv busy makespan =
  if makespan > 0.0 then begin
    let h = Live.histogram l "served.worker_utilization" in
    Array.iter (fun b -> Live.observe h (b /. makespan)) busy
  end;
  Live.set (Live.gauge l "served.makespan_s") makespan;
  Live.set
    (Live.gauge l "served.inflight_final")
    (float_of_int (Server.stats srv).Server.inflight)

let drive ?live srv cfg =
  let t_start = Monotonic.now () in
  let w = cfg.workers in
  let status = Array.make w w_idle in
  let batch : int list array = Array.make w [] in
  let batch_t0 : float array = Array.make w 0.0 in  (* alloc time of batch *)
  let draws = Array.make w 0 in
  let epoch = Array.make w 0 in
  let first_req = Array.make w nan in
  let churn = Array.init w (fun i -> Plan.Churn.create cfg.churn ~client:i) in
  let churn_kind = Array.make w Plan.Churn.Crash in
  let lease_req =
    Array.init w (fun i -> Wire.Lease_req { worker = i; k = cfg.k })
  in
  let crashed = ref 0 in
  let disconnects = ref 0 in
  let grant_lat = samples () in
  let service_lat = samples () in
  (* per-worker utilization: a busy interval opens on a Lease and closes
     when the batch empties (or churn/finish cuts it) *)
  let busy = Array.make w 0.0 in
  let busy_since = Array.make w nan in
  let end_busy i t =
    if not (Float.is_nan busy_since.(i)) then begin
      busy.(i) <- busy.(i) +. (t -. busy_since.(i));
      busy_since.(i) <- nan
    end
  in
  let events : int Heap.t = Heap.create () in
  let schedule_churn i =
    match Plan.Churn.next churn.(i) with
    | None -> ()
    | Some { Plan.Churn.time; kind } ->
      churn_kind.(i) <- kind;
      Heap.push events time (ev ev_churn i 0)
  in
  for i = 0 to w - 1 do
    (* stagger the opening burst deterministically over one mean service
       time so the first leases do not all carry time 0 *)
    let rng = Random.State.make [| cfg.seed; 0x0F; i |] in
    Heap.push events
      (Random.State.float rng cfg.mean_service_s)
      (ev ev_request i 0);
    schedule_churn i
  done;
  let now = ref 0.0 in
  let next_service i t =
    draws.(i) <- draws.(i) + 1;
    t +. service_s cfg ~worker:i ~draw:(draws.(i) - 1)
  in
  let fire_expiries t =
    while Server.next_expiry srv <= t do
      ignore (Server.expire srv ~now:(Server.next_expiry srv))
    done
  in
  let alive i = status.(i) = w_idle || status.(i) = w_busy in
  let finish i t =
    end_busy i t;
    status.(i) <- w_finished
  in
  let handle_request i t =
    if alive i then begin
      if Float.is_nan first_req.(i) then first_req.(i) <- t;
      match Server.handle srv ~now:t lease_req.(i) with
      | Wire.Lease { tasks; expires_in_s = _ } ->
        sample grant_lat (t -. first_req.(i));
        first_req.(i) <- nan;
        status.(i) <- w_busy;
        busy_since.(i) <- t;
        batch.(i) <- Array.to_list tasks;
        batch_t0.(i) <- t;
        Heap.push events (next_service i t) (ev ev_complete i epoch.(i))
      | Wire.Retry_after { delay_s } ->
        (* due a constant delay after the non-decreasing clock: in order *)
        Heap.append events
          (t +. Float.max delay_s 1e-6)
          (ev ev_request i epoch.(i))
      | Wire.Done _ -> finish i t
      | _ -> finish i t
    end
  in
  let handle_complete_due i t =
    if status.(i) = w_busy then begin
      match batch.(i) with
      | [] -> (* batch vanished to churn *) ()
      | task :: rest -> (
        batch.(i) <- rest;
        sample service_lat (t -. batch_t0.(i));
        match Server.handle srv ~now:t (Wire.Complete { worker = i; task }) with
        | Wire.Done _ -> finish i t
        | _ ->
          if rest <> [] then
            Heap.push events (next_service i t) (ev ev_complete i epoch.(i))
          else begin
            end_busy i t;
            status.(i) <- w_idle;
            Heap.push events (t +. cfg.think_s) (ev ev_request i epoch.(i))
          end)
    end
  in
  let handle_churn i kind t =
    (match kind with
    | Plan.Churn.Crash ->
      if status.(i) <> w_finished then begin
        incr crashed;
        epoch.(i) <- epoch.(i) + 1;
        end_busy i t;
        status.(i) <- w_dead;
        batch.(i) <- [];
        first_req.(i) <- nan
      end
    | Plan.Churn.Disconnect _downtime ->
      if alive i then begin
        incr disconnects;
        epoch.(i) <- epoch.(i) + 1;
        end_busy i t;
        status.(i) <- w_offline;
        batch.(i) <- [];
        first_req.(i) <- nan
      end
    | Plan.Churn.Rejoin ->
      if status.(i) = w_offline then begin
        epoch.(i) <- epoch.(i) + 1;
        status.(i) <- w_idle;
        Heap.push events t (ev ev_request i epoch.(i))
      end);
    schedule_churn i
  in
  while (not (Server.is_done srv)) && not (Heap.is_empty events) do
    let t = Heap.min_key events in
    let e = Heap.pop_min events in
    fire_expiries t;
    now := t;
    let i = ev_worker e and kind = e land 3 in
    if kind = ev_churn then handle_churn i churn_kind.(i) t
    else if ev_epoch e = epoch.(i) then
      if kind = ev_request then handle_request i t else handle_complete_due i t
  done;
  for i = 0 to w - 1 do
    end_busy i !now
  done;
  Option.iter (fun l -> record_run l srv busy !now) live;
  let grant_p50, grant_p99 = quantiles grant_lat 0.5 0.99 in
  let service_p50, service_p99 = quantiles service_lat 0.5 0.99 in
  {
    n_tasks = Server.n_tasks srv;
    completed = Server.completed srv;
    makespan_s = !now;
    wall_s = Monotonic.now () -. t_start;
    server = Server.stats srv;
    crashed = !crashed;
    disconnects = !disconnects;
    lease_grant_p50_s = grant_p50;
    lease_grant_p99_s = grant_p99;
    task_service_p50_s = service_p50;
    task_service_p99_s = service_p99;
    busy_s = busy;
  }

let run_virtual ?sink ?live ?flight ~server:scfg cfg g =
  drive ?live (Server.create ?sink ?live ?flight scfg g) cfg

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
  | C_churn of int * Plan.Churn.kind
  | C_to_server of Wire.msg
  | C_to_worker of int * int * Wire.msg  (* worker, epoch at emission *)
  | C_retry of int * int * int  (* worker, epoch, request seq *)

let run_chaos ?sink ?live ?flight ~server:scfg ~wire
    ?(reply_timeout_s = 1.0) cfg g =
  if (not (Float.is_finite reply_timeout_s)) || reply_timeout_s <= 0.0 then
    invalid_arg "Hammer.run_chaos: reply_timeout_s must be finite and positive";
  let t_start = Monotonic.now () in
  let srv = Server.create ?sink ?live ?flight scfg g in
  let w = cfg.workers in
  let c2s = Chaos.create wire ~dir:0 in
  let s2c = Chaos.create wire ~dir:1 in
  let status = Array.make w w_idle in
  let batch : int list array = Array.make w [] in
  let batch_t0 = Array.make w 0.0 in
  let draws = Array.make w 0 in
  let epoch = Array.make w 0 in
  let first_req = Array.make w nan in
  let churn = Array.init w (fun i -> Plan.Churn.create cfg.churn ~client:i) in
  let crashed = ref 0 in
  let disconnects = ref 0 in
  let retries = ref 0 in
  let grant_lat = samples () in
  let service_lat = samples () in
  let busy = Array.make w 0.0 in
  let busy_since = Array.make w nan in
  let end_busy i t =
    if not (Float.is_nan busy_since.(i)) then begin
      busy.(i) <- busy.(i) +. (t -. busy_since.(i));
      busy_since.(i) <- nan
    end
  in
  (* an unanswered request keeps its sequence number until any reply that
     can answer it lands; the timeout probe resends while it is open *)
  let seq = Array.make w 0 in
  let awaiting = Array.make w (-1) in
  let last_msg : Wire.msg option array = Array.make w None in
  let events : cev Heap.t = Heap.create () in
  let schedule_churn i =
    match Plan.Churn.next churn.(i) with
    | None -> ()
    | Some { Plan.Churn.time; kind } -> Heap.push events time (C_churn (i, kind))
  in
  for i = 0 to w - 1 do
    let rng = Random.State.make [| cfg.seed; 0x0F; i |] in
    Heap.push events
      (Random.State.float rng cfg.mean_service_s)
      (C_request (i, 0));
    schedule_churn i
  done;
  let now = ref 0.0 in
  let next_service i t =
    draws.(i) <- draws.(i) + 1;
    t +. service_s cfg ~worker:i ~draw:(draws.(i) - 1)
  in
  let fire_expiries t =
    while Server.next_expiry srv <= t do
      ignore (Server.expire srv ~now:(Server.next_expiry srv))
    done
  in
  let alive i = status.(i) = w_idle || status.(i) = w_busy in
  let finish i t =
    end_busy i t;
    status.(i) <- w_finished
  in
  let uplink i t msg =
    List.iter
      (fun (dt, m) -> Heap.push events dt (C_to_server m))
      (Chaos.send c2s ~now:t msg);
    Heap.push events (t +. reply_timeout_s) (C_retry (i, epoch.(i), seq.(i)))
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
    match m with
    | Wire.Done _ ->
      reset_session i;
      if status.(i) <> w_dead then finish i t
    | Wire.Welcome _ -> ()
    | Wire.Lease { tasks; expires_in_s = _ } ->
      (* only an idle worker with an open request accepts; a duplicated
         or stale Lease is dropped here and its tasks re-issue by expiry *)
      if status.(i) = w_idle && awaiting.(i) >= 0 then begin
        reset_session i;
        if not (Float.is_nan first_req.(i)) then begin
          sample grant_lat (t -. first_req.(i));
          first_req.(i) <- nan
        end;
        status.(i) <- w_busy;
        busy_since.(i) <- t;
        batch.(i) <- Array.to_list tasks;
        batch_t0.(i) <- t;
        Heap.push events (next_service i t) (C_complete_due (i, epoch.(i)))
      end
    | Wire.Retry_after { delay_s } ->
      if status.(i) = w_idle && awaiting.(i) >= 0 then begin
        reset_session i;
        Heap.append events
          (t +. Float.max delay_s 1e-6)
          (C_request (i, epoch.(i)))
      end
    | Wire.Ack ->
      if status.(i) = w_busy && awaiting.(i) >= 0 then begin
        reset_session i;
        if batch.(i) <> [] then
          Heap.push events (next_service i t) (C_complete_due (i, epoch.(i)))
        else begin
          end_busy i t;
          status.(i) <- w_idle;
          Heap.push events (t +. cfg.think_s) (C_request (i, epoch.(i)))
        end
      end
    | _ -> ()
  in
  let handle_churn i kind t =
    (match kind with
    | Plan.Churn.Crash ->
      if status.(i) <> w_finished then begin
        incr crashed;
        epoch.(i) <- epoch.(i) + 1;
        end_busy i t;
        status.(i) <- w_dead;
        batch.(i) <- [];
        first_req.(i) <- nan;
        reset_session i
      end
    | Plan.Churn.Disconnect _ ->
      if alive i then begin
        incr disconnects;
        epoch.(i) <- epoch.(i) + 1;
        end_busy i t;
        status.(i) <- w_offline;
        batch.(i) <- [];
        first_req.(i) <- nan;
        reset_session i
      end
    | Plan.Churn.Rejoin ->
      if status.(i) = w_offline then begin
        epoch.(i) <- epoch.(i) + 1;
        status.(i) <- w_idle;
        Heap.push events t (C_request (i, epoch.(i)))
      end);
    schedule_churn i
  in
  while (not (Server.is_done srv)) && not (Heap.is_empty events) do
    let t = Heap.min_key events in
    let ev = Heap.pop_min events in
    fire_expiries t;
    now := t;
    match ev with
    | C_request (i, ep) ->
      if ep = epoch.(i) && status.(i) = w_idle && awaiting.(i) < 0 then begin
        if Float.is_nan first_req.(i) then first_req.(i) <- t;
        transmit i t (Wire.Lease_req { worker = i; k = cfg.k })
      end
    | C_complete_due (i, ep) ->
      if ep = epoch.(i) && status.(i) = w_busy then begin
        match batch.(i) with
        | [] -> ()
        | task :: rest ->
          batch.(i) <- rest;
          sample service_lat (t -. batch_t0.(i));
          transmit i t (Wire.Complete { worker = i; task })
      end
    | C_churn (i, kind) -> handle_churn i kind t
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
            Heap.push events dt (C_to_worker (target, epoch.(target), r)))
          (Chaos.send s2c ~now:t reply))
    | C_to_worker (i, ep, m) -> if ep = epoch.(i) then deliver i t m
    | C_retry (i, ep, s) ->
      (* the request is still open: the frame (or its reply) died on
         the wire — resend the same message as a fresh frame *)
      if ep = epoch.(i) && awaiting.(i) = s && alive i then begin
        incr retries;
        match last_msg.(i) with
        | Some m -> uplink i t m
        | None -> ()
      end
  done;
  for i = 0 to w - 1 do
    end_busy i !now
  done;
  (match live with
  | None -> ()
  | Some l ->
    record_run l srv busy !now;
    let link name (s : Chaos.stats) =
      let c field v =
        Live.incr
          (Live.counter l (Printf.sprintf "served.chaos.%s.%s" name field))
          ~shard:0 v
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
    Live.incr (Live.counter l "served.chaos.retries") ~shard:0 !retries);
  let grant_p50, grant_p99 = quantiles grant_lat 0.5 0.99 in
  let service_p50, service_p99 = quantiles service_lat 0.5 0.99 in
  {
    base =
      {
        n_tasks = Server.n_tasks srv;
        completed = Server.completed srv;
        makespan_s = !now;
        wall_s = Monotonic.now () -. t_start;
        server = Server.stats srv;
        crashed = !crashed;
        disconnects = !disconnects;
        lease_grant_p50_s = grant_p50;
        lease_grant_p99_s = grant_p99;
        task_service_p50_s = service_p50;
        task_service_p99_s = service_p99;
        busy_s = busy;
      };
    c2s = Chaos.stats c2s;
    s2c = Chaos.stats s2c;
    retries = !retries;
  }
