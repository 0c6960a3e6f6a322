module Dag = Ic_dag.Dag
module Shard_view = Ic_dag.Shard_view
module Recovery = Ic_fault.Recovery
module Trace = Ic_obs.Trace
module Live = Ic_obs.Live
module Flight = Ic_obs.Flight
module Heap = Ic_heuristics.Heap

type config = {
  n_shards : int;
  max_lease : int;
  max_inflight : int;
  expected_s : float;
  retry_after_s : float;
  recovery : Recovery.t;
}

let config ?(n_shards = 1) ?(max_lease = 64) ?(max_inflight = 65536)
    ?(expected_s = 1.0) ?(retry_after_s = 0.01) ?recovery () =
  if n_shards < 1 then invalid_arg "Server.config: n_shards must be >= 1";
  if max_lease < 1 || max_lease > Wire.max_lease_tasks then
    invalid_arg
      (Printf.sprintf "Server.config: max_lease must be in 1..%d"
         Wire.max_lease_tasks);
  if max_inflight < 1 then invalid_arg "Server.config: max_inflight must be >= 1";
  if (not (Float.is_finite expected_s)) || expected_s <= 0.0 then
    invalid_arg "Server.config: expected_s must be finite and positive";
  if (not (Float.is_finite retry_after_s)) || retry_after_s < 0.0 then
    invalid_arg "Server.config: retry_after_s must be finite and >= 0";
  let recovery =
    match recovery with
    | Some r -> r
    | None -> Recovery.make ~timeout_factor:4.0 ()
  in
  { n_shards; max_lease; max_inflight; expected_s; retry_after_s; recovery }

(* task lifecycle: Blocked -> Ready (in its shard's pool) -> Leased ->
   Done, with Leased -> Ready again on expiry. Pool entries are
   invalidated lazily: an entry is live iff its task is still Ready. *)
let st_blocked = '\000'
let st_ready = '\001'
let st_leased = '\002'
let st_done = '\003'

(* a deadline-heap entry packs (task, lease generation) into one
   immediate: the task in the low 31 bits (dags index nodes by int32),
   the generation above it *)
let task_bits = 31
let task_mask = (1 lsl task_bits) - 1
let expiry_entry v gen = (gen lsl task_bits) lor v

(* the served.* instruments, resolved once so each update is a field
   read and one atomic op; a scrape endpoint in another thread of
   control can read them mid-run. The server itself is single-writer,
   so its cell shard is always 0 *)
type live_meters = {
  l_leases : Live.counter;
  l_leased_tasks : Live.counter;
  l_completions : Live.counter;
  l_duplicates : Live.counter;
  l_reissues : Live.counter;
  l_retry_afters : Live.counter;
  l_heartbeats : Live.counter;
  l_errors : Live.counter;
  l_shard_leased : Live.counter array;
  l_frontier : Live.gauge;
  l_inflight : Live.gauge;
  l_service : Live.histogram;
}

type t = {
  cfg : config;
  view : Shard_view.t;
  pools : Shards.t;
  state : Bytes.t;
  gen : int array;  (* lease generation per task; bumps invalidate expiries *)
  alloc_t : float array;  (* allocation time of the task's latest lease *)
  expiries : int Heap.t;  (* deadline -> [expiry_entry task gen] *)
  retry : Wire.msg;  (* the one [Retry_after] reply: the config is fixed *)
  scratch : int array;  (* lease accumulator, max_lease long *)
  scratch_pop : int array;  (* pop_batch target — distinct from scratch:
                               a pop for a later shard must not clobber
                               tasks already accumulated *)
  (* (task, gen) pairs per worker, for heartbeat renewal; stale pairs are
     dropped on the worker's next grant or renewal *)
  by_worker : (int, (int * int) list) Hashtbl.t;
  mutable inflight : int;
  mutable cursor : int;  (* round-robin shard cursor for batch filling *)
  mutable draining : bool;
  mutable leases : int;
  mutable leased_tasks : int;
  mutable completions : int;
  mutable duplicates : int;
  mutable reissues : int;
  mutable retry_afters : int;
  mutable heartbeats : int;
  mutable errors : int;
  mutable recovered_reissues : int;
  mutable recovered_tasks : int;
  journal : Journal.t option;
  live : live_meters option;
  flight : Flight.t option;
  sink : Trace.t option;
  (* last frontier depth traced per shard / last inflight traced, so the
     sink only carries counter-track points when the value moves *)
  last_depth : int array;
  mutable last_inflight : int;
  (* last totals pushed to the live gauges: setting a float Atomic boxes
     the float, so skip the store when the value did not move *)
  mutable live_depth : int;
  mutable live_inflight : int;
}

(* allocate a server with every task Blocked and empty pools; [create]
   seeds the sources, [recover] replays a journal instead *)
let mk ?sink ?journal ?live ?flight cfg g =
  let n = Dag.n_nodes g in
  let view = Shard_view.create ~n_shards:cfg.n_shards g in
  let pools = Shards.create ~n_shards:(Shard_view.n_shards view) () in
  let state = Bytes.make n st_blocked in
  let live =
    match live with
    | None -> None
    | Some l ->
      Live.set (Live.gauge l "served.n_tasks") (float_of_int n);
      Live.set
        (Live.gauge l "served.n_shards")
        (float_of_int (Shard_view.n_shards view));
      Some
        {
          l_leases = Live.counter l "served.leases";
          l_leased_tasks = Live.counter l "served.leased_tasks";
          l_completions = Live.counter l "served.completions";
          l_duplicates = Live.counter l "served.duplicate_completes";
          l_reissues = Live.counter l "served.reissues";
          l_retry_afters = Live.counter l "served.retry_afters";
          l_heartbeats = Live.counter l "served.heartbeats";
          l_errors = Live.counter l "served.protocol_errors";
          l_shard_leased =
            Array.init (Shard_view.n_shards view) (fun s ->
                Live.counter l (Printf.sprintf "served.shard%d.leased" s));
          l_frontier = Live.gauge l "served.frontier_depth";
          l_inflight = Live.gauge l "served.inflight";
          l_service = Live.histogram l "served.lease_service_s";
        }
  in
  {
    cfg;
    view;
    pools;
    state;
    gen = Array.make n 0;
    alloc_t = Array.make n 0.0;
    expiries = Heap.create ();
    retry = Wire.Retry_after { delay_s = cfg.retry_after_s };
    scratch = Array.make cfg.max_lease 0;
    scratch_pop = Array.make cfg.max_lease 0;
    by_worker = Hashtbl.create 64;
    inflight = 0;
    cursor = 0;
    draining = false;
    leases = 0;
    leased_tasks = 0;
    completions = 0;
    duplicates = 0;
    reissues = 0;
    retry_afters = 0;
    heartbeats = 0;
    errors = 0;
    recovered_reissues = 0;
    recovered_tasks = 0;
    journal;
    live;
    flight;
    sink;
    last_depth = Array.make (Shard_view.n_shards view) (-1);
    last_inflight = -1;
    live_depth = -1;
    live_inflight = -1;
  }

let create ?sink ?journal ?live ?flight cfg g =
  (match journal with
  | Some j when Journal.replayed j <> [] ->
    invalid_arg
      "Server.create: the journal holds prior records — use Server.recover"
  | _ -> ());
  let t = mk ?sink ?journal ?live ?flight cfg g in
  Shard_view.iter_initial t.view (fun ~shard v ->
      Bytes.set t.state v st_ready;
      Shards.push t.pools ~shard v);
  t

let n_tasks t = Shard_view.n_nodes t.view
let completed t = Shard_view.completed t.view
let is_done t = Shard_view.is_complete t.view
let shard_of t v = Shard_view.shard_of t.view v

let timeout_s t = Recovery.timeout_after t.cfg.recovery ~expected:t.cfg.expected_s

let with_live t f = match t.live with None -> () | Some l -> f l

let flight_record t kind ~time ~a ~b =
  match t.flight with
  | None -> ()
  | Some fl -> Flight.record fl kind ~time ~a ~b

let done_reply t = Wire.Done { completed = completed t; reissues = t.reissues }

let retry_reply t =
  t.retry_afters <- t.retry_afters + 1;
  with_live t (fun l -> Live.incr l.l_retry_afters ~shard:0 1);
  t.retry

let error_reply t =
  t.errors <- t.errors + 1;
  with_live t (fun l -> Live.incr l.l_errors ~shard:0 1);
  Wire.Ack

(* pull up to [budget] Ready tasks out of the pools, starting at the
   round-robin cursor, touching as few shards as possible;
   stale entries (tasks no longer Ready) are discarded on the way. Every
   task returned is leased, so the per-shard leased counters are bumped
   here, once per shard visited rather than once per task *)
let fill_batch t ~budget acc =
  let n_shards = Shards.n_shards t.pools in
  let got = ref 0 in
  let tried = ref 0 in
  while !got < budget && !tried < n_shards do
    let shard = (t.cursor + !tried) mod n_shards in
    let b =
      Shards.pop_batch t.pools ~shard ~max:(budget - !got) t.scratch_pop
    in
    let before = !got in
    for i = 0 to b - 1 do
      let v = t.scratch_pop.(i) in
      if Bytes.get t.state v = st_ready then begin
        acc.(!got) <- v;
        incr got
      end
    done;
    (match t.live with
    | Some l when !got > before ->
      Live.incr l.l_shard_leased.(shard) ~shard:0 (!got - before)
    | _ -> ());
    (* a shard that came back short is drained; move the cursor past it *)
    if !got < budget then incr tried
  done;
  t.cursor <- (t.cursor + !tried) mod n_shards;
  !got

(* whether [v]'s lease of generation [g] is still the live one *)
let holds t v g = Bytes.get t.state v = st_leased && t.gen.(v) = g

let record_lease t ~now v =
  Bytes.set t.state v st_leased;
  t.gen.(v) <- t.gen.(v) + 1;
  t.alloc_t.(v) <- now;
  t.inflight <- t.inflight + 1;
  let tmo = timeout_s t in
  if Float.is_finite tmo then
    Heap.push t.expiries (now +. tmo) (expiry_entry v t.gen.(v));
  let shard = shard_of t v in
  flight_record t Trace.Task_alloc ~time:now ~a:v ~b:shard;
  match t.sink with
  | None -> ()
  | Some tr -> Trace.task_alloc tr ~time:now ~task:v ~client:shard

let push_ready t v =
  Bytes.set t.state v st_ready;
  Shards.push t.pools ~shard:(shard_of t v) v

let set_bit bm v =
  Bytes.set bm (v lsr 3)
    (Char.chr (Char.code (Bytes.get bm (v lsr 3)) lor (1 lsl (v land 7))))

let get_bit bm v =
  Char.code (Bytes.get bm (v lsr 3)) land (1 lsl (v land 7)) <> 0

let journal_append t r =
  match t.journal with None -> () | Some j -> Journal.append j r

(* compact the journal to a snapshot of the current byte states; after
   recovery nothing is leased, so the leased bitmap only matters for
   checkpoints taken while serving *)
let write_checkpoint t j =
  let n = n_tasks t in
  let bl = Journal.bitmap_len n in
  let done_ = Bytes.make bl '\000' in
  let leased = Bytes.make bl '\000' in
  for v = 0 to n - 1 do
    let st = Bytes.get t.state v in
    if st = st_done then set_bit done_ v
    else if st = st_leased then set_bit leased v
  done;
  Journal.checkpoint j ~n ~done_ ~leased

let maybe_checkpoint t =
  match t.journal with
  | Some j when Journal.checkpoint_due j -> write_checkpoint t j
  | _ -> ()

let apply_complete t ~now v =
  (* durability before acknowledgment: once the Complete record is out,
     a crash cannot re-lease this task *)
  journal_append t (Journal.Complete v);
  (* exactly-once: flip to Done first, then propagate; a pool entry left
     behind by an expiry is invalidated by the state flip *)
  if Bytes.get t.state v = st_leased then t.inflight <- t.inflight - 1;
  Bytes.set t.state v st_done;
  t.completions <- t.completions + 1;
  let service = now -. t.alloc_t.(v) in
  with_live t (fun l ->
      Live.incr l.l_completions ~shard:0 1;
      Live.observe l.l_service service);
  Shard_view.complete t.view v ~ready:(fun ~shard:_ u -> push_ready t u);
  flight_record t Trace.Task_complete ~time:now ~a:v ~b:(shard_of t v);
  (match t.sink with
  | None -> ()
  | Some tr -> Trace.task_complete tr ~time:now ~task:v ~client:(shard_of t v));
  maybe_checkpoint t

(* the live frontier/inflight sample taken after every handled message.
   Pool sizes count entries awaiting lazy invalidation, so the depth is
   an upper bound — exact whenever no lease has expired since the pool
   was last drained. *)
let sample t ~now =
  if t.live != None || t.sink != None || t.flight != None then begin
    let total = ref 0 in
    let n_shards = Shards.n_shards t.pools in
    for s = 0 to n_shards - 1 do
      let d = Shards.size t.pools ~shard:s in
      total := !total + d;
      if t.last_depth.(s) <> d then begin
        t.last_depth.(s) <- d;
        (match t.sink with
        | Some tr -> Trace.frontier_depth tr ~time:now ~shard:s ~depth:d
        | None -> ());
        (* the ring too: the pre-crash load signal is what a post-mortem
           reads first, and change-gating keeps it from flooding out the
           alloc/complete tail *)
        flight_record t Trace.Frontier_depth ~time:now ~a:s ~b:d
      end
    done;
    let depth = float_of_int !total in
    let inflight = float_of_int t.inflight in
    with_live t (fun l ->
        if t.live_depth <> !total then begin
          t.live_depth <- !total;
          Live.set l.l_frontier depth
        end;
        if t.live_inflight <> t.inflight then begin
          t.live_inflight <- t.inflight;
          Live.set l.l_inflight inflight
        end);
    if t.last_inflight <> t.inflight then begin
      t.last_inflight <- t.inflight;
      (match t.sink with
      | Some tr -> Trace.inflight tr ~time:now ~count:t.inflight
      | None -> ());
      flight_record t Trace.Inflight ~time:now ~a:t.inflight ~b:0
    end
  end

let handle_msg t ~now (msg : Wire.msg) : Wire.msg =
  match msg with
  | Hello { worker = _ } ->
    Wire.Welcome
      { n_tasks = n_tasks t; n_shards = Shard_view.n_shards t.view }
  | Lease_req { worker; k } ->
    if is_done t || t.draining then done_reply t
    else begin
      let budget =
        min (min k t.cfg.max_lease) (t.cfg.max_inflight - t.inflight)
      in
      (* with every pool empty [fill_batch] would pop nothing, bump no
         counter and leave the cursor where it is: refuse without it *)
      if budget <= 0 || Shards.total t.pools = 0 then retry_reply t
      else begin
        let got = fill_batch t ~budget t.scratch in
        if got = 0 then retry_reply t
        else begin
          let tasks = Array.sub t.scratch 0 got in
          journal_append t (Journal.Lease tasks);
          (* the worker's pairs that are no longer live go first: nothing
             else prunes them when the worker never heartbeats *)
          let held =
            match Hashtbl.find_opt t.by_worker worker with
            | None -> []
            | Some pairs -> List.filter (fun (v, g) -> holds t v g) pairs
          in
          Hashtbl.replace t.by_worker worker
            (Array.fold_left
               (fun held v ->
                 record_lease t ~now v;
                 (v, t.gen.(v)) :: held)
               held tasks);
          t.leases <- t.leases + 1;
          t.leased_tasks <- t.leased_tasks + got;
          with_live t (fun l ->
              Live.incr l.l_leases ~shard:0 1;
              Live.incr l.l_leased_tasks ~shard:0 got);
          let tmo = timeout_s t in
          Wire.Lease { tasks; expires_in_s = tmo }
        end
      end
    end
  | Complete { worker = _; task } ->
    if task < 0 || task >= n_tasks t then error_reply t
    else begin
      let st = Bytes.get t.state task in
      if st = st_done then begin
        t.duplicates <- t.duplicates + 1;
        with_live t (fun l -> Live.incr l.l_duplicates ~shard:0 1);
        if is_done t then done_reply t else Wire.Ack
      end
      else if st = st_leased || st = st_ready then begin
        (* Ready means the lease expired and the task went back to a
           pool; the straggler's completion still counts (first one
           wins), the stale pool entry dies with the state flip *)
        apply_complete t ~now task;
        if is_done t then done_reply t else Wire.Ack
      end
      else (* completing a never-eligible task is a protocol violation *)
        error_reply t
    end
  | Heartbeat { worker } ->
    t.heartbeats <- t.heartbeats + 1;
    with_live t (fun l -> Live.incr l.l_heartbeats ~shard:0 1);
    let tmo = timeout_s t in
    (if Float.is_finite tmo then
       match Hashtbl.find_opt t.by_worker worker with
       | None -> ()
       | Some leases ->
         let live =
           List.filter_map
             (fun (v, g) ->
               if holds t v g then begin
                 (* renew: bump the generation so the old heap entry is
                    stale, and push the extended expiry *)
                 t.gen.(v) <- t.gen.(v) + 1;
                 Heap.push t.expiries (now +. tmo) (expiry_entry v t.gen.(v));
                 Some (v, t.gen.(v))
               end
               else None)
             leases
         in
         if live = [] then Hashtbl.remove t.by_worker worker
         else Hashtbl.replace t.by_worker worker live);
    if is_done t then done_reply t else Wire.Ack
  | Drain ->
    t.draining <- true;
    done_reply t
  | Welcome _ | Lease _ | Retry_after _ | Done _ | Ack ->
    (* server-side messages arriving at the server *)
    error_reply t

let handle t ~now (msg : Wire.msg) : Wire.msg =
  let reply = handle_msg t ~now msg in
  sample t ~now;
  reply

let next_expiry t = Heap.min_key t.expiries [@@inline]

let expire t ~now =
  let fired = ref 0 in
  while Heap.min_key t.expiries <= now do
    let time = Heap.min_key t.expiries in
    let e = Heap.pop_min t.expiries in
    let v = e land task_mask in
    if holds t v (e lsr task_bits) then begin
      (* the holder went quiet: re-issue *)
      t.inflight <- t.inflight - 1;
      t.reissues <- t.reissues + 1;
      incr fired;
      with_live t (fun l -> Live.incr l.l_reissues ~shard:0 1);
      flight_record t Trace.Timeout_fired ~time ~a:v ~b:(shard_of t v);
      (match t.sink with
      | None -> ()
      | Some tr -> Trace.timeout_fired tr ~time ~task:v ~client:(shard_of t v));
      push_ready t v
    end
  done;
  !fired

let recover ?sink ?live ?flight ~journal cfg g =
  let t = mk ?sink ?live ?flight ~journal cfg g in
  let n = n_tasks t in
  (* fold the journal into a done set and a leased-at-crash set; a later
     checkpoint supersedes everything before it *)
  let done_ = Bytes.make n '\000' in
  let leased = Bytes.make n '\000' in
  let err = ref None in
  let mark set v =
    if v < 0 || v >= n then
      err :=
        Some
          (Printf.sprintf
             "journal: task %d out of range (this dag has %d tasks)" v n)
    else Bytes.set set v '\001'
  in
  List.iter
    (fun r ->
      if !err = None then
        match r with
        | Journal.Complete v -> mark done_ v
        | Journal.Lease vs -> Array.iter (mark leased) vs
        | Journal.Checkpoint { n = cn; done_ = db; leased = lb } ->
          if cn <> n then
            err :=
              Some
                (Printf.sprintf
                   "journal: checkpoint of %d tasks does not match this dag \
                    (%d tasks)"
                   cn n)
          else begin
            Bytes.fill done_ 0 n '\000';
            Bytes.fill leased 0 n '\000';
            for v = 0 to n - 1 do
              if get_bit db v then Bytes.set done_ v '\001';
              if get_bit lb v then Bytes.set leased v '\001'
            done
          end)
    (Journal.replayed journal);
  match !err with
  | Some e -> Error e
  | None ->
    let n_done = ref 0 in
    for v = 0 to n - 1 do
      if Bytes.get done_ v = '\001' then begin
        incr n_done;
        Bytes.set t.state v st_done
      end
    done;
    (* sources that did not finish before the crash go straight back to
       their pools *)
    Shard_view.iter_initial t.view (fun ~shard:_ v ->
        if Bytes.get done_ v = '\000' then push_ready t v);
    (* replaying the done set through the dependence view re-derives the
       Ready frontier: completions can only be journaled in an
       ancestor-closed order, so a non-done task whose predecessors are
       all done is reported eligible exactly once, in any replay order *)
    for v = 0 to n - 1 do
      if Bytes.get done_ v = '\001' then
        Shard_view.complete t.view v ~ready:(fun ~shard:_ u ->
            if Bytes.get done_ u = '\000' then push_ready t u)
    done;
    t.completions <- !n_done;
    t.recovered_tasks <- !n_done;
    with_live t (fun l -> Live.incr l.l_completions ~shard:0 !n_done);
    (* tasks leased but not completed at the crash are back in the pools
       (their predecessors are all done) and will be granted again: the
       at-most-one re-issue per crash the exactly-once contract allows *)
    let reissued = ref 0 in
    for v = 0 to n - 1 do
      if Bytes.get leased v = '\001' && Bytes.get done_ v = '\000' then
        incr reissued
    done;
    t.recovered_reissues <- !reissued;
    (match live with
    | None -> ()
    | Some l ->
      Live.incr (Live.counter l "served.recovered_reissues") ~shard:0 !reissued;
      Live.set
        (Live.gauge l "served.recovered_tasks")
        (float_of_int !n_done));
    (* compact immediately: the restored state becomes the new baseline
       and the pre-crash tail is retired *)
    write_checkpoint t journal;
    Ok t

type stats = {
  leases : int;
  leased_tasks : int;
  completions : int;
  duplicate_completes : int;
  reissues : int;
  retry_afters : int;
  heartbeats : int;
  protocol_errors : int;
  inflight : int;
  recovered_reissues : int;
  recovered_tasks : int;
}

let stats (t : t) =
  {
    leases = t.leases;
    leased_tasks = t.leased_tasks;
    completions = t.completions;
    duplicate_completes = t.duplicates;
    reissues = t.reissues;
    retry_afters = t.retry_afters;
    heartbeats = t.heartbeats;
    protocol_errors = t.errors;
    inflight = t.inflight;
    recovered_reissues = t.recovered_reissues;
    recovered_tasks = t.recovered_tasks;
  }
