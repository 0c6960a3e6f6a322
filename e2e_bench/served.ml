(* The served workloads: the lease server over loopback TCP (tcp-mesh,
   tcp-durable) and in virtual time (virtual-churn), and the probes that
   price each served layer alone on the workload's own dag, batch size,
   shard count and journal/live settings.

   The TCP workloads are closed loops, as in the paper's model: an idle
   worker asks for work and waits for the reply. The server runs in a
   second domain and the hammer in the main one, over two connections. *)

module Dag = Ic_dag.Dag
module Shard_view = Ic_dag.Shard_view
module Wire = Ic_served.Wire
module Server = Ic_served.Server
module Hammer = Ic_served.Hammer
module Tcp = Ic_served.Tcp
module Journal = Ic_served.Journal
module Shards = Ic_served.Shards
module Live = Ic_obs.Live
module Plan = Ic_fault.Plan
module Recovery = Ic_fault.Recovery

let now = E2e.now
let ratio = E2e.ratio
let fi = float_of_int

let ok_or_fail what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* ------------------------------------------------------ one TCP drain *)

type drain = {
  setup_s : float;
  wall_s : float;  (** hammer start to server exit *)
  cpu_s : float;
  st : Server.stats;
  hr : Tcp.hammer_result;
  serve_s : float;
  server_cpu : float * float;  (** server domain (user, sys); traced only *)
  client_cpu : float * float;  (** main domain around the hammer; traced only *)
  minor_words : float;  (** both domains, set-up included *)
  major : int;
}

let connections = 2

let sub (a, b) (c, d) = (a -. c, b -. d)

(* Serve [g] from a second domain and drain it with the hammer. Set-up
   runs from [t0] (taken by the caller before it loaded or built the dag)
   until the server reports its port. *)
let tcp_drain ~traced ~t0 ~scfg ~hcfg ?journal ?live g =
  let thread_cpu () = if traced then E2e.thread_cpu () else (0.0, 0.0) in
  let gc () = Gc.quick_stat () in
  let gc0 = gc () in
  let port = Atomic.make 0 in
  let parent = E2e.current_span () in
  let server =
    Domain.spawn (fun () ->
        let c0 = thread_cpu () in
        let st, serve_s =
          E2e.timed ~parent "tcp.serve" (fun () ->
              try
                Tcp.serve ?journal ?live ~once:true ~port:0
                  ~on_listen:(fun p -> Atomic.set port p)
                  scfg g
              with e ->
                Atomic.set port (-1);
                raise e)
        in
        (st, serve_s, sub (thread_cpu ()) c0))
  in
  while Atomic.get port = 0 do
    Domain.cpu_relax ()
  done;
  let setup_s = now () -. t0 in
  let c0 = thread_cpu () and p0 = E2e.process_cpu () in
  let t1 = now () in
  let hr =
    if Atomic.get port < 0 then None
    else
      Some
        (E2e.span "tcp.hammer" (fun () ->
             Tcp.hammer ~connections ~port:(Atomic.get port) hcfg))
  in
  let client_cpu = sub (thread_cpu ()) c0 in
  (* after the join the process-wide GC counters include the server's *)
  let st, serve_s, server_cpu = Domain.join server in
  let wall_s = now () -. t1 in
  let gc1 = gc () in
  {
    setup_s;
    wall_s;
    cpu_s = E2e.process_cpu () -. p0;
    st;
    hr = Option.get hr;
    serve_s;
    server_cpu;
    client_cpu;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* tasks not applied exactly once, protocol errors, reconnects, crashed
   workers and a drain that never saw Done *)
let drain_failures ~n d =
  n - d.st.Server.completions + d.st.Server.protocol_errors + d.hr.Tcp.reconnects
  + d.hr.Tcp.crashed
  + if d.hr.Tcp.done_seen then 0 else 1

(* -------------------------------------------------- counts and shares *)

(* Frames that crossed the wire in one drain, per message kind, rebuilt
   from the counts the server and the hammer return. Every worker ends
   on exactly one Done: the one whose Complete finished the dag gets it
   in place of an Ack, every other one in reply to a Lease_req. *)
type traffic = {
  lease_reqs : int;
  leases : int;
  leased_tasks : int;
  retries : int;
  completes : int;
  acks : int;
  dones : int;
}

let traffic d =
  let st = d.st and w = d.hr.Tcp.workers in
  {
    lease_reqs = st.Server.leases + st.Server.retry_afters + (w - 1);
    leases = st.Server.leases;
    leased_tasks = st.Server.leased_tasks;
    retries = st.Server.retry_afters;
    completes = d.hr.Tcp.completes_sent;
    acks = d.hr.Tcp.completes_sent - 1;
    dones = w;
  }

let frame_bytes msg = fi (String.length (Wire.to_string msg))

(* frames and bytes on the wire, both directions; lease frames are sized
   from their fixed header plus four bytes per task id *)
let wire_volume ~k tr =
  let frames = 2 * (connections + tr.lease_reqs + tr.completes) in
  let bytes =
    (fi connections
     *. (frame_bytes (Wire.Hello { worker = 0 })
        +. frame_bytes (Wire.Welcome { n_tasks = 0; n_shards = 1 })))
    +. (fi tr.lease_reqs *. frame_bytes (Wire.Lease_req { worker = 0; k }))
    +. (fi tr.leases
       *. frame_bytes (Wire.Lease { tasks = [||]; expires_in_s = 1.0 }))
    +. (4.0 *. fi tr.leased_tasks)
    +. (fi tr.retries *. frame_bytes (Wire.Retry_after { delay_s = 0.01 }))
    +. (fi tr.completes *. frame_bytes (Wire.Complete { worker = 0; task = 0 }))
    +. (fi tr.acks *. frame_bytes Wire.Ack)
    +. (fi tr.dones *. frame_bytes (Wire.Done { completed = 0; reissues = 0 }))
  in
  (fi frames, bytes)

let server_shares (st : Server.stats) =
  [
    ( "server.retry_after_share",
      ratio (fi st.retry_afters) (fi (st.leases + st.retry_afters)) );
    ("server.tasks_per_lease", ratio (fi st.leased_tasks) (fi st.leases));
    ( "server.reissue_share",
      ratio (fi (st.leased_tasks - st.completions)) (fi st.leased_tasks) );
    ( "server.duplicate_share",
      ratio (fi st.duplicate_completes) (fi (st.completions + st.duplicate_completes))
    );
  ]

let mean a = ratio (Array.fold_left ( +. ) 0.0 a) (fi (Array.length a))

let tcp_layers ~n ~k d =
  let su, ss = d.server_cpu and cu, cs = d.client_cpu in
  let frames, bytes = wire_volume ~k (traffic d) in
  [
    ("tcp.server_user_s", su);
    ("tcp.server_sys_s", ss);
    ("tcp.server_busy_share", ratio (su +. ss) d.serve_s);
    ("tcp.client_user_s", cu);
    ("tcp.client_sys_s", cs);
    ("tcp.client_busy_share", ratio (cu +. cs) d.hr.Tcp.wall_s);
    ("tcp.frames_per_task", frames /. fi n);
    ("tcp.wire_bytes_per_task", bytes /. fi n);
    ("hammer.lease_grant_p50_ms", d.hr.Tcp.lease_grant_p50_s *. 1e3);
    ("hammer.lease_grant_p99_ms", d.hr.Tcp.lease_grant_p99_s *. 1e3);
    ("hammer.worker_util", ratio (mean d.hr.Tcp.busy_s) d.hr.Tcp.wall_s);
    ("gc.minor_words_per_task", d.minor_words /. fi n);
    ("gc.major_collections", fi d.major);
  ]
  @ server_shares d.st

(* ------------------------------------------------------------- probes *)

(* Wire codec, one message kind at a time: encode into a reused buffer,
   decode through the incremental reader [Tcp] uses. *)
let wire_probes ~k ~n =
  let buf = Buffer.create 256 in
  let r = Wire.Reader.create () in
  [
    ("lease_req", Wire.Lease_req { worker = 1; k });
    ("lease", Wire.Lease { tasks = Array.init k (fun i -> (n / 2) + i); expires_in_s = 2.0 });
    ("complete", Wire.Complete { worker = 1; task = n / 2 });
    ("ack", Wire.Ack);
    ("retry_after", Wire.Retry_after { delay_s = 0.01 });
  ]
  |> List.concat_map (fun (kind, msg) ->
         let frame = Bytes.of_string (Wire.to_string msg) in
         let len = Bytes.length frame in
         [
           ( "wire.encode_ns." ^ kind,
             E2e.ns_per_call ~iters:100_000 (fun () ->
                 Buffer.clear buf;
                 Wire.encode buf msg) );
           ( "wire.decode_ns." ^ kind,
             E2e.ns_per_call ~iters:100_000 (fun () ->
                 Wire.Reader.feed r frame 0 len;
                 ignore (Sys.opaque_identity (Wire.Reader.next r))) );
         ])

(* the cost of the two clock reads that bracket a timed call *)
let clock_overhead_s () =
  let iters = 100_000 in
  let t0 = now () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (now ()))
  done;
  (now () -. t0) /. fi iters

type handle_costs = {
  lease_ns : float;
  retry_ns : float;
  complete_ns : float;
  expire_ns : float;
  drive_s : float;  (** whole drive, clock reads included *)
}

(* A bench-owned synchronous drive of [Server.handle] on the workload's
   dag and settings, timing every call by the kind of reply it produced.
   One worker leases until refused, then completes everything it holds;
   halfway through, twenty rounds expire every held lease and lease the
   tasks again, to price [Server.expire]. Time is virtual and advances by
   a nanosecond a call, so no lease expires unless the drive says so. *)
let handle_probe ?journal ?live ~scfg ~k g =
  let srv = Server.create ?journal ?live scfg g in
  let n = Dag.n_nodes g in
  let clock = ref 0.0 in
  let tick () =
    clock := !clock +. 1e-9;
    !clock
  in
  let lease = ref (0, 0.0) and retry = ref (0, 0.0) in
  let complete = ref (0, 0.0) and expire = ref (0, 0.0) in
  let add r c dt =
    let c0, s0 = !r in
    r := (c0 + c, s0 +. dt)
  in
  let call msg =
    let t0 = now () in
    let reply = Server.handle srv ~now:(tick ()) msg in
    (reply, now () -. t0)
  in
  let held = ref [] in
  let lease_all ~timed =
    let asking = ref true in
    while !asking do
      match call (Wire.Lease_req { worker = 0; k }) with
      | Wire.Lease { tasks; _ }, dt ->
        if timed then add lease 1 dt;
        Array.iter (fun v -> held := v :: !held) tasks
      | Wire.Retry_after _, dt ->
        if timed then add retry 1 dt;
        asking := false
      | _ -> asking := false
    done
  in
  let expired = ref false in
  let t_drive = now () in
  while not (Server.is_done srv) do
    lease_all ~timed:true;
    if (not !expired) && Server.completed srv >= n / 2 then begin
      expired := true;
      for _ = 1 to 20 do
        clock := !clock +. 1e6;
        let t0 = now () in
        let fired = Server.expire srv ~now:!clock in
        add expire fired (now () -. t0);
        held := [];
        lease_all ~timed:false
      done
    end;
    List.iter
      (fun v -> add complete 1 (snd (call (Wire.Complete { worker = 0; task = v }))))
      (List.rev !held);
    held := []
  done;
  let drive_s = now () -. t_drive in
  let oh = clock_overhead_s () in
  let per r = let c, s = !r in if c = 0 then 0.0 else ((s /. fi c) -. oh) *. 1e9 in
  let per_expiry =
    let c, s = !expire in
    if c = 0 then 0.0 else (s -. (20.0 *. oh)) /. fi c *. 1e9
  in
  {
    lease_ns = per lease;
    retry_ns = per retry;
    complete_ns = per complete;
    expire_ns = per_expiry;
    drive_s;
  }

let handle_metrics h =
  [
    ("server.handle_ns.lease", h.lease_ns);
    ("server.handle_ns.retry_after", h.retry_ns);
    ("server.handle_ns.complete", h.complete_ns);
    ("server.expire_ns", h.expire_ns);
  ]

(* the grant path alone: prefilled pools drained through [pop_batch] *)
let shards_probe ~n_shards ~k ~n =
  let n = min n 262_144 in
  E2e.median
    (List.init 5 (fun _ ->
         let pools = Shards.create ~n_shards () in
         for v = 0 to n - 1 do
           Shards.push pools ~shard:(v mod n_shards) v
         done;
         let out = Array.make k 0 in
         let got = ref 0 and shard = ref 0 in
         let t0 = now () in
         while !got < n do
           let b = Shards.pop_batch pools ~shard:!shard ~max:k out in
           if b = 0 then shard := (!shard + 1) mod n_shards else got := !got + b
         done;
         (now () -. t0) /. fi n *. 1e9))

(* dependence counting alone: every node completed in topological order *)
let shard_view_probe ~n_shards g =
  let order = Dag.topological_order g in
  E2e.median
    (List.init 3 (fun _ ->
         let view = Shard_view.create ~n_shards g in
         let t0 = now () in
         Array.iter
           (fun v -> Shard_view.complete view v ~ready:(fun ~shard:_ _ -> ()))
           order;
         (now () -. t0) /. fi (Array.length order) *. 1e9))

let layer_probes ~scfg ~k g =
  let n = Dag.n_nodes g in
  [
    ("shards.pop_ns_per_task", shards_probe ~n_shards:scfg.Server.n_shards ~k ~n);
    ("shard_view.complete_ns", shard_view_probe ~n_shards:scfg.Server.n_shards g);
  ]

(* [attrib.unexplained_share]: the part of the server domain's CPU that
   no probe accounts for (syscalls, the select loop, GC), given the
   frames and handle calls counted in the real drain *)
let unexplained ~probed h (tr, server_s) =
  let p name = List.assoc name probed *. 1e-9 in
  let predicted =
    (fi tr.lease_reqs *. p "wire.decode_ns.lease_req")
    +. (fi tr.completes *. p "wire.decode_ns.complete")
    +. (fi tr.leases *. (p "wire.encode_ns.lease" +. (h.lease_ns *. 1e-9)))
    +. (fi tr.retries *. (p "wire.encode_ns.retry_after" +. (h.retry_ns *. 1e-9)))
    +. (fi tr.acks *. p "wire.encode_ns.ack")
    +. (fi tr.completes *. h.complete_ns *. 1e-9)
  in
  1.0 -. ratio predicted server_s

(* -------------------------------------------------------- the workloads *)

let tcp_scfg = Server.config ~n_shards:3 ~expected_s:0.5 ()
let tcp_k = 4

let tcp_hcfg ~seed =
  Hammer.config ~workers:256 ~k:tcp_k ~mean_service_s:50e-6 ~think_s:10e-6 ~seed ()

(* what each traced drain leaves for the probes: its traffic and the
   server domain's CPU seconds *)
let remember_drain drains d =
  let u, s = d.server_cpu in
  drains := (traffic d, u +. s) :: !drains

(* 1. tcp-mesh: the production [serve --load] path, an mmap'd snapshot of
   an out-mesh whose frontier grows from one task and shrinks back *)
let mesh_levels = 512

let tcp_mesh ~seed =
  let snap = E2e.work_file "mesh.icdag" in
  let g = Ic_families.Mesh.out_mesh mesh_levels in
  let (), save_s = E2e.timed "dag.save" (fun () -> ok_or_fail "snapshot" (Dag.save g snap)) in
  let n = Dag.n_nodes g in
  let hcfg = tcp_hcfg ~seed in
  let load_ms = ref [] and drains = ref [] in
  let run_unit ~traced =
    let t0 = now () in
    let g, load_s = E2e.timed "dag.load" (fun () -> ok_or_fail "snapshot" (Dag.load snap)) in
    let d = tcp_drain ~traced ~t0 ~scfg:tcp_scfg ~hcfg g in
    if traced then begin
      remember_drain drains d;
      load_ms := (load_s *. 1e3) :: !load_ms
    end;
    {
      E2e.setup_s = d.setup_s;
      samples =
        [
          {
            E2e.tasks = d.st.Server.completions;
            wall_s = d.wall_s;
            cpu_s = d.cpu_s;
            layers = (if traced then tcp_layers ~n ~k:tcp_k d else []);
          };
        ];
      attempted = n + 1;
      failed = drain_failures ~n d;
    }
  in
  let probes () =
    let g = ok_or_fail "snapshot" (Dag.load snap) in
    let wire = wire_probes ~k:tcp_k ~n in
    let h = handle_probe ~scfg:tcp_scfg ~k:tcp_k g in
    [
      ("dag.snapshot_save_ms", save_s *. 1e3);
      ("dag.snapshot_load_ms", E2e.median !load_ms);
      ( "attrib.unexplained_share",
        E2e.median (List.map (unexplained ~probed:wire h) !drains) );
    ]
    @ wire @ handle_metrics h @ layer_probes ~scfg:tcp_scfg ~k:tcp_k g
  in
  { E2e.run_unit; probes; finish = (fun () -> E2e.remove snap) }

(* 2. tcp-durable: the same transport and fleet against a butterfly, with
   a journal flushed on every append and a live telemetry registry *)
let butterfly_dim = 12
let checkpoint_every = 4096

let open_journal path =
  E2e.remove path;
  ok_or_fail "journal" (Journal.open_ ~checkpoint_every path)

(* Journal appends and checkpoints alone, on a fresh file; the bytes a
   drain writes per task follow from the record sizes measured here and
   the drain's own counts. *)
let journal_probes ~path ~n (st : Server.stats) =
  let iters = 5000 in
  let j = open_journal path in
  let size () = fi (Unix.stat path).Unix.st_size in
  let per_append record =
    let s0 = size () in
    let t0 = now () in
    for _ = 1 to iters do
      Journal.append j record
    done;
    ((now () -. t0) /. fi iters *. 1e6, (size () -. s0) /. fi iters)
  in
  let complete_us, complete_b = per_append (Journal.Complete (n / 2)) in
  let lease_us, lease_b = per_append (Journal.Lease (Array.make tcp_k (n / 2))) in
  let bl = Journal.bitmap_len n in
  let ckpt_ms =
    E2e.median
      (List.init 5 (fun _ ->
           let t0 = now () in
           Journal.checkpoint j ~n ~done_:(Bytes.make bl '\000')
             ~leased:(Bytes.make bl '\000');
           (now () -. t0) *. 1e3))
  in
  let ckpt_b = size () in
  Journal.close j;
  E2e.remove path;
  let lease_header = lease_b -. (4.0 *. fi tcp_k) in
  let bytes =
    (complete_b *. fi st.completions)
    +. (lease_header *. fi st.leases)
    +. (4.0 *. fi st.leased_tasks)
    +. (ckpt_b *. fi (st.completions / checkpoint_every))
  in
  [
    ("journal.append_us.complete", complete_us);
    ("journal.append_us.lease", lease_us);
    ("journal.checkpoint_ms", ckpt_ms);
    ("journal.bytes_per_task", bytes /. fi n);
  ]

let tcp_durable ~seed =
  let wal = E2e.work_file "durable.wal" in
  let hcfg = tcp_hcfg ~seed in
  let last = ref None and drains = ref [] in
  let run_unit ~traced =
    let t0 = now () in
    let g = E2e.span "dag.build" (fun () -> Ic_families.Butterfly_net.dag butterfly_dim) in
    let n = Dag.n_nodes g in
    let journal = open_journal wal in
    let d = tcp_drain ~traced ~t0 ~scfg:tcp_scfg ~hcfg ~journal ~live:(Live.create ()) g in
    Journal.close journal;
    (* the journal must replay to n completions *)
    let replayed =
      E2e.span "journal.replay" (fun () ->
          let j = ok_or_fail "journal" (Journal.open_ wal) in
          let r = Server.recover ~journal:j tcp_scfg g in
          Journal.close j;
          match r with
          | Ok srv -> (Server.stats srv).Server.recovered_tasks
          | Error _ -> -1)
    in
    last := Some (g, d);
    if traced then remember_drain drains d;
    {
      E2e.setup_s = d.setup_s;
      samples =
        [
          {
            E2e.tasks = d.st.Server.completions;
            wall_s = d.wall_s;
            cpu_s = d.cpu_s;
            layers = (if traced then tcp_layers ~n ~k:tcp_k d else []);
          };
        ];
      attempted = n + 2;
      failed = drain_failures ~n d + if replayed = n then 0 else 1;
    }
  in
  let probes () =
    let g, d = Option.get !last in
    let n = Dag.n_nodes g in
    let wire = wire_probes ~k:tcp_k ~n in
    let probe_wal = E2e.work_file "probe.wal" in
    let journal = open_journal probe_wal in
    let h = handle_probe ~journal ~live:(Live.create ()) ~scfg:tcp_scfg ~k:tcp_k g in
    Journal.close journal;
    (* telemetry alone: the same drive with and without a live registry *)
    let drive live = (handle_probe ?live ~scfg:tcp_scfg ~k:tcp_k g).drive_s in
    let bare = E2e.median (List.init 3 (fun _ -> drive None)) in
    let live = E2e.median (List.init 3 (fun _ -> drive (Some (Live.create ())))) in
    [
      ( "attrib.unexplained_share",
        E2e.median (List.map (unexplained ~probed:wire h) !drains) );
      ("live.mirror_ns_per_task", (live -. bare) /. fi n *. 1e9);
    ]
    @ journal_probes ~path:probe_wal ~n d.st
    @ wire @ handle_metrics h @ layer_probes ~scfg:tcp_scfg ~k:tcp_k g
  in
  { E2e.run_unit; probes; finish = (fun () -> E2e.remove wal) }

(* 3. virtual-churn: the paper's gridlock regime in virtual time.
   [churn_workers] churning workers, twenty times the widest frontier
   ([churn_levels + 1]), in process, with no sockets and no wire. Every
   count and virtual time repeats exactly for a seed, so wall time is
   pure server and harness CPU. The sizes keep the harness's working set
   small: at 10,000 workers on out-mesh-512 a run slowed by a fifth
   whenever another process streamed through memory. *)
let churn_levels = 192
let churn_workers = 4000
let churn_k = 8

let churn_scfg =
  Server.config ~n_shards:3 ~max_lease:64 ~expected_s:0.2 ~retry_after_s:0.2
    ~recovery:(Recovery.make ~timeout_factor:4.0 ())
    ()

let requests (st : Server.stats) =
  st.leases + st.retry_afters + st.completions + st.duplicate_completes
  + st.heartbeats

(* How much work a drain takes depends on where the churn and the
   service tail fall, by several per cent from one seed to the next. The
   units of a run therefore cycle through [churn_seeds] seeds derived from
   the run's seed, so that the run's median is not one seed's draw; each
   seed that comes round again must repeat its drain exactly. *)
let churn_seeds = 3

let virtual_churn ~seed =
  let cfg seed =
    Hammer.config ~workers:churn_workers ~k:churn_k ~mean_service_s:0.01 ~think_s:0.001
      ~churn:
        (Plan.make ~crash_rate:0.002 ~disconnect_rate:0.02 ~mean_downtime:0.5 ~seed
           ())
      ~seed ()
  in
  let first = Hashtbl.create churn_seeds and traced_seeds = Hashtbl.create churn_seeds in
  let last_g = ref None and runs = ref [] in
  let units = ref 0 in
  let run_unit ~traced =
    let unit_seed = (seed * churn_seeds) + (!units mod churn_seeds) in
    incr units;
    let g, setup_s =
      E2e.timed "dag.build" (fun () -> Ic_families.Mesh.out_mesh churn_levels)
    in
    let n = Dag.n_nodes g in
    let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
    let p0 = E2e.process_cpu () in
    let r, wall_s =
      E2e.timed "hammer.run_virtual" (fun () ->
          Hammer.run_virtual ~server:churn_scfg (cfg unit_seed) g)
    in
    let cpu_s = E2e.process_cpu () -. p0 in
    let st = r.Hammer.server in
    let fingerprint = (st, r.Hammer.makespan_s, r.Hammer.completed) in
    let repeats =
      match Hashtbl.find_opt first unit_seed with
      | None ->
        Hashtbl.add first unit_seed fingerprint;
        true
      | Some f -> f = fingerprint
    in
    last_g := Some g;
    if traced then runs := (st, wall_s) :: !runs;
    (* one traced unit per seed, so the medians of the virtual-time
       values are the same on every run with this seed *)
    let layers =
      if Hashtbl.mem traced_seeds unit_seed || not traced then []
      else begin
        Hashtbl.add traced_seeds unit_seed ();
        [
          ("hammer.lease_grant_p50_ms", r.Hammer.lease_grant_p50_s *. 1e3);
          ("hammer.lease_grant_p99_ms", r.Hammer.lease_grant_p99_s *. 1e3);
          ("hammer.worker_util", ratio (mean r.Hammer.busy_s) r.Hammer.makespan_s);
          ("hammer.virtual_makespan_s", r.Hammer.makespan_s);
          ("hammer.requests_per_task", fi (requests st) /. fi n);
          ("gc.minor_words_per_task", (Gc.minor_words () -. w0) /. fi n);
          ( "gc.major_collections",
            fi ((Gc.quick_stat ()).Gc.major_collections - m0) );
        ]
        @ server_shares st
      end
    in
    {
      E2e.setup_s;
      samples = [ { E2e.tasks = r.Hammer.completed; wall_s; cpu_s; layers } ];
      attempted = n + 1;
      failed =
        n - r.Hammer.completed + st.Server.protocol_errors
        + if repeats then 0 else 1;
    }
  in
  let probes () =
    let g = Option.get !last_g in
    let h = handle_probe ~scfg:churn_scfg ~k:churn_k g in
    (* [hammer.harness_share]: the part of the run's wall time that the
       server's probed per-call costs do not account for *)
    let harness ((st : Server.stats), wall_s) =
      let server_s =
        ((fi st.leases *. h.lease_ns)
        +. (fi st.retry_afters *. h.retry_ns)
        +. (fi (st.completions + st.duplicate_completes) *. h.complete_ns)
        +. (fi st.reissues *. h.expire_ns))
        *. 1e-9
      in
      1.0 -. ratio server_s wall_s
    in
    [ ("hammer.harness_share", E2e.median (List.map harness !runs)) ]
    @ handle_metrics h
    @ layer_probes ~scfg:churn_scfg ~k:churn_k g
  in
  { E2e.run_unit; probes; finish = ignore }
