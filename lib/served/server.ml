module Dag = Ic_dag.Dag
module Shard_view = Ic_dag.Shard_view
module Recovery = Ic_fault.Recovery
module Trace = Ic_obs.Trace
module Live = Ic_obs.Live
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

type t = {
  cfg : config;
  view : Shard_view.t;
  pools : Shards.t;
  state : Bytes.t;
  holder : int array;  (* worker of the task's latest lease *)
  alloc_t : float array;  (* allocation time of the task's latest lease *)
  tmo : float;  (* lease timeout, from [cfg.recovery] *)
  (* deadline -> task. A Leased task goes back to Ready only when its own
     entry pops, so it has exactly one entry; a Done task's is dropped *)
  expiries : int Heap.t;
  (* worker -> time of its last heartbeat, read by [expire] when one of
     the worker's deadlines pops *)
  beats : (int, float) Hashtbl.t;
  mutable beats_pruned : int;  (* [beats]'s size after its last prune *)
  retry : Wire.msg;  (* the one [Retry_after] reply: the config is fixed *)
  scratch : int array;  (* lease accumulator, max_lease long *)
  scratch_pop : int array;  (* pop_batch target — distinct from scratch:
                               a pop for a later shard must not clobber
                               tasks already accumulated *)
  on_ready : shard:int -> int -> unit;  (* Blocked -> Ready, into the pool *)
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
  shard_leased : int array;  (* tasks leased from each shard *)
  journal : Journal.t option;
  service : Live.histogram option;
  sink : Trace.t option;
  (* last frontier depth traced per shard / last inflight traced, so the
     sink only carries counter-track points when the value moves *)
  last_depth : int array;
  mutable last_inflight : int;
}

(* pool sizes count entries awaiting lazy invalidation *)
let frontier_depth t = Shards.total t.pools

(* allocate a server with every task Blocked and empty pools; [create]
   seeds the sources, [recover] replays a journal instead *)
let mk ?sink ?journal ?live cfg g =
  let n = Dag.n_nodes g in
  let view = Shard_view.create ~n_shards:cfg.n_shards g in
  let pools = Shards.create ~n_shards:(Shard_view.n_shards view) () in
  let state = Bytes.make n st_blocked in
  (* the one ready callback, built here so no completion allocates it *)
  let on_ready ~shard v =
    Bytes.set state v st_ready;
    Shards.push pools ~shard v
  in
  let t =
    {
      cfg;
      view;
      pools;
      state;
      holder = Array.make n 0;
      alloc_t = Array.make n 0.0;
      tmo = Recovery.timeout_after cfg.recovery ~expected:cfg.expected_s;
      expiries = Heap.create ();
      beats = Hashtbl.create 64;
      beats_pruned = 64;
      retry = Wire.Retry_after { delay_s = cfg.retry_after_s };
      scratch = Array.make cfg.max_lease 0;
      scratch_pop = Array.make cfg.max_lease 0;
      on_ready;
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
      shard_leased = Array.make (Shard_view.n_shards view) 0;
      journal;
      service =
        Option.map (fun l -> Live.histogram l "served.lease_service_s") live;
      sink;
      last_depth = Array.make (Shard_view.n_shards view) (-1);
      last_inflight = -1;
    }
  in
  (* the served.* counters and gauges are readers over the fields above:
     a scrape sees exactly what [stats] returns, however it is timed *)
  Option.iter
    (fun l ->
      let c name f = Live.counter_reader l ("served." ^ name) f in
      let g name f =
        Live.gauge_reader l ("served." ^ name) (fun () -> float_of_int (f ()))
      in
      c "leases" (fun () -> t.leases);
      c "leased_tasks" (fun () -> t.leased_tasks);
      c "completions" (fun () -> t.completions);
      c "duplicate_completes" (fun () -> t.duplicates);
      c "reissues" (fun () -> t.reissues);
      c "retry_afters" (fun () -> t.retry_afters);
      c "heartbeats" (fun () -> t.heartbeats);
      c "protocol_errors" (fun () -> t.errors);
      Array.iteri
        (fun s _ ->
          c (Printf.sprintf "shard%d.leased" s) (fun () -> t.shard_leased.(s)))
        t.shard_leased;
      g "frontier_depth" (fun () -> frontier_depth t);
      g "inflight" (fun () -> t.inflight);
      g "n_tasks" (fun () -> n);
      g "n_shards" (fun () -> Array.length t.shard_leased))
    live;
  t

let create ?sink ?journal ?live cfg g =
  (match journal with
  | Some j when Journal.replayed j <> [] ->
    invalid_arg
      "Server.create: the journal holds prior records — use Server.recover"
  | _ -> ());
  let t = mk ?sink ?journal ?live cfg g in
  Shard_view.iter_initial t.view t.on_ready;
  t

let n_tasks t = Shard_view.n_nodes t.view
let completed t = Shard_view.completed t.view
let is_done t = Shard_view.is_complete t.view
let shard_of t v = Shard_view.shard_of t.view v

let emit t kind ~time ~a ~b =
  match t.sink with None -> () | Some tr -> Trace.emit tr kind ~time ~a ~b

let done_reply t = Wire.Done { completed = completed t; reissues = t.reissues }

let retry_reply t =
  t.retry_afters <- t.retry_afters + 1;
  t.retry

let error_reply t =
  t.errors <- t.errors + 1;
  Wire.Ack

(* pull up to [budget] Ready tasks out of the pools, starting at the
   round-robin cursor, touching as few shards as possible;
   stale entries (tasks no longer Ready) are discarded on the way. Every
   task returned is leased, so the per-shard leased counts are bumped
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
    t.shard_leased.(shard) <- t.shard_leased.(shard) + !got - before;
    (* a shard that came back short is drained; move the cursor past it *)
    if !got < budget then incr tried
  done;
  t.cursor <- (t.cursor + !tried) mod n_shards;
  !got

let record_lease t ~now ~worker v =
  Bytes.set t.state v st_leased;
  t.holder.(v) <- worker;
  t.alloc_t.(v) <- now;
  t.inflight <- t.inflight + 1;
  if Float.is_finite t.tmo then
    (* [push_after] boxes no deadline: a grant allocates only its reply *)
    Heap.push_after t.expiries now t.tmo v;
  emit t Trace.Task_alloc ~time:now ~a:v ~b:(shard_of t v)

(* A stamp [h] renews the holder's leases to [h + tmo], so once that is
   no later than the earliest deadline in the heap it can move none:
   every later grant dies at [now + tmo] or after. Dropping such stamps
   whenever the table has doubled keeps it as small as the heap keeps
   itself, and changes no expiry *)
let stamp t ~now worker =
  Hashtbl.replace t.beats worker now;
  if Hashtbl.length t.beats >= 2 * t.beats_pruned then begin
    let earliest = Heap.min_key t.expiries in
    Hashtbl.filter_map_inplace
      (fun _ h -> if h +. t.tmo <= earliest then None else Some h)
      t.beats;
    t.beats_pruned <- max 64 (Hashtbl.length t.beats)
  end

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
  (match t.service with
  | None -> ()
  | Some h -> Live.observe h (now -. t.alloc_t.(v)));
  Shard_view.complete t.view v ~ready:t.on_ready;
  emit t Trace.Task_complete ~time:now ~a:v ~b:(shard_of t v);
  maybe_checkpoint t

(* the frontier/inflight trace points taken after every handled message *)
let sample t ~now =
  if t.sink != None then begin
    let n_shards = Shards.n_shards t.pools in
    for s = 0 to n_shards - 1 do
      let d = Shards.size t.pools ~shard:s in
      if t.last_depth.(s) <> d then begin
        t.last_depth.(s) <- d;
        (* the pre-crash load signal is what a post-mortem of a
           recorder sink reads first, and change-gating keeps it from
           flooding out the alloc/complete tail *)
        emit t Trace.Frontier_depth ~time:now ~a:s ~b:d
      end
    done;
    if t.last_inflight <> t.inflight then begin
      t.last_inflight <- t.inflight;
      emit t Trace.Inflight ~time:now ~a:t.inflight ~b:0
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
          (match t.journal with
          | None -> ()
          | Some j -> Journal.append j (Journal.Lease tasks));
          for i = 0 to got - 1 do
            record_lease t ~now ~worker tasks.(i)
          done;
          t.leases <- t.leases + 1;
          t.leased_tasks <- t.leased_tasks + got;
          Wire.Lease { tasks; expires_in_s = t.tmo }
        end
      end
    end
  | Complete { worker = _; task } ->
    if task < 0 || task >= n_tasks t then error_reply t
    else begin
      let st = Bytes.get t.state task in
      if st = st_done then begin
        t.duplicates <- t.duplicates + 1;
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
    (* O(1): [expire] applies the stamp when a deadline of the worker's
       pops *)
    if Float.is_finite t.tmo then stamp t ~now worker;
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
    let v = Heap.pop_min t.expiries in
    if Bytes.get t.state v = st_leased then begin
      let beat =
        if Hashtbl.length t.beats = 0 then None
        else Hashtbl.find_opt t.beats t.holder.(v)
      in
      match beat with
      | Some h when h +. t.tmo > time ->
        (* a heartbeat from the holder moved this deadline *)
        Heap.push_after t.expiries h t.tmo v
      | _ ->
        (* the holder went quiet: re-issue *)
        t.inflight <- t.inflight - 1;
        t.reissues <- t.reissues + 1;
        incr fired;
        let shard = shard_of t v in
        emit t Trace.Timeout_fired ~time ~a:v ~b:shard;
        t.on_ready ~shard v
    end
  done;
  !fired

let recover ?sink ?live ~journal cfg g =
  let t = mk ?sink ?live ~journal cfg g in
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
       their pools; replaying the done set through the dependence view
       re-derives the rest of the Ready frontier: completions can only be
       journaled in an ancestor-closed order, so a non-done task whose
       predecessors are all done is reported eligible exactly once, in
       any replay order *)
    let unless_done ~shard v =
      if Bytes.get done_ v = '\000' then t.on_ready ~shard v
    in
    Shard_view.iter_initial t.view unless_done;
    for v = 0 to n - 1 do
      if Bytes.get done_ v = '\001' then
        Shard_view.complete t.view v ~ready:unless_done
    done;
    t.completions <- !n_done;
    t.recovered_tasks <- !n_done;
    (* tasks leased but not completed at the crash are back in the pools
       (their predecessors are all done) and will be granted again: the
       at-most-one re-issue per crash the exactly-once contract allows *)
    let reissued = ref 0 in
    for v = 0 to n - 1 do
      if Bytes.get leased v = '\001' && Bytes.get done_ v = '\000' then
        incr reissued
    done;
    t.recovered_reissues <- !reissued;
    Option.iter
      (fun l ->
        Live.counter_reader l "served.recovered_reissues" (fun () ->
            t.recovered_reissues);
        Live.gauge_reader l "served.recovered_tasks" (fun () ->
            float_of_int t.recovered_tasks))
      live;
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
