(* The served bench runner: three in-process scenes, nine records.

   - pool_pop_k1 / pool_pop_k16: the lease-grant hot path alone, the
     sharded pools drained one task or sixteen tasks per visit.
   - drain_k1 / drain_k16, and drain_k16 again with a Live registry
     (drain_k16_live) or a write-ahead journal flushed or fsynced per
     append (drain_k16_journal, drain_k16_journal_fsync): the whole
     request path through Server.handle on an edgeless dag.
   - virtual_10k_workers / virtual_churn: the deterministic virtual
     hammer drives a 3-shard server with 10^4 workers, the second
     under a seeded crash/disconnect plan, to price lease expiry,
     re-issue and duplicate handling.

   Real sockets are the end-to-end benchmark's job (e2e_bench, the
   tcp-mesh and tcp-durable workloads). leases/sec here is leased tasks
   per second of harness wall time: the virtual clock prices no work,
   so wall time is exactly the server + harness CPU cost of serving the
   run. *)

module Wire = Ic_served.Wire
module Server = Ic_served.Server
module Hammer = Ic_served.Hammer
module Plan = Ic_fault.Plan
module Recovery = Ic_fault.Recovery
module Mesh = Ic_families.Mesh
module Dag = Ic_dag.Dag

let pf = Printf.sprintf

let fin x = if Float.is_finite x then x else 0.0

let record ~bench ~n_tasks ~workers ~k ~wall_s ~(server : Server.stats)
    ~grant_p50 ~grant_p99 ~service_p50 ~service_p99 =
  pf
    "{\"phase\": \"served\", \"bench\": \"%s\", \"n_tasks\": %d, \
     \"workers\": %d, \"k\": %d, \"wall_s\": %.6f, \"leases\": %d, \
     \"leased_tasks\": %d, \"leased_tasks_per_s\": %.1f, \
     \"leases_per_s\": %.1f, \"completions\": %d, \"reissues\": %d, \
     \"duplicates\": %d, \"retry_afters\": %d, \"grant_p50_s\": %.6f, \
     \"grant_p99_s\": %.6f, \"service_p50_s\": %.6f, \"service_p99_s\": \
     %.6f}"
    bench n_tasks workers k wall_s server.Server.leases
    server.Server.leased_tasks
    (float_of_int server.Server.leased_tasks /. wall_s)
    (float_of_int server.Server.leases /. wall_s)
    server.Server.completions server.Server.reissues
    server.Server.duplicate_completes server.Server.retry_afters
    (fin grant_p50) (fin grant_p99) (fin service_p50) (fin service_p99)

(* The batch-amortization measurement proper: the lease-grant hot path
   in isolation. The pools are prefilled (pushes are inherently per-task
   — they happen on completion — so they are kept out of the timed
   region), then drained through [pop_batch] with max = k: per granted
   task the path pays 1/k of a call (range check, pool lookup) plus one
   array copy. The k = 16 vs k = 1 grants/sec ratio is the claim "one
   pool visit amortizes over a batch of k" measured directly. *)
let pool_scene ~emit ~bench ~n ~k =
  let pools = Ic_served.Shards.create ~n_shards:3 () in
  for v = 0 to n - 1 do
    Ic_served.Shards.push pools ~shard:(v mod 3) v
  done;
  let out = Array.make k 0 in
  let t0 = Ic_prof.Monotonic.now () in
  let got = ref 0 in
  let shard = ref 0 in
  while !got < n do
    let b = Ic_served.Shards.pop_batch pools ~shard:!shard ~max:k out in
    if b = 0 then shard := (!shard + 1) mod 3 else got := !got + b
  done;
  let wall_s = Ic_prof.Monotonic.now () -. t0 in
  emit
    (pf
       "{\"phase\": \"served\", \"bench\": \"%s\", \"n_tasks\": %d, \
        \"workers\": 1, \"k\": %d, \"wall_s\": %.6f, \
        \"leased_tasks_per_s\": %.1f}"
       bench n k wall_s
       (float_of_int n /. wall_s))

(* End-to-end k sweep: a greedy driver drains an edgeless dag (every
   task eligible up front — the embarrassingly parallel extreme),
   completing each lease synchronously. Per task the server pays one
   Complete plus 1/k of a Lease_req; per-task bookkeeping (state flips,
   expiry tracking) is shared, so this ratio shows what batching buys
   across the whole request path, not just the pool. With [journal] the
   same drain runs against a write-ahead journal on a temp file —
   [Some false] flush-per-append, [Some true] fsync-per-append — so the
   journal-off / fsync-off / fsync-on triple prices durability per
   completion. With [live] the same drain runs against an
   {!Ic_obs.Live} registry: the server's counters and gauges are
   readers over its own fields, so the only per-event cost left is the
   service-time histogram — the drain_k16 / drain_k16_live ratio is the
   whole-path price of live telemetry (acceptance: within 5%). *)
let drain_scene ~emit ~bench ~n ~k ?journal ?live () =
  let g = Dag.empty n in
  let j =
    Option.map
      (fun fsync ->
        let path = Filename.temp_file "ic_bench_journal" ".wal" in
        match Ic_served.Journal.open_ ~fsync ~checkpoint_every:4096 path with
        | Ok j -> (j, path)
        | Error e -> failwith ("bench journal: " ^ e))
      journal
  in
  let srv =
    Server.create
      ?journal:(Option.map fst j)
      ?live
      (Server.config ~n_shards:3 ~max_lease:64 ())
      g
  in
  let t0 = Ic_prof.Monotonic.now () in
  let now = ref 0.0 in
  let continue = ref true in
  while !continue do
    now := !now +. 1e-6;
    match Server.handle srv ~now:!now (Wire.Lease_req { worker = 0; k }) with
    | Wire.Lease { tasks; _ } ->
      Array.iter
        (fun task ->
          ignore
            (Server.handle srv ~now:!now (Wire.Complete { worker = 0; task })))
        tasks
    | Wire.Done _ -> continue := false
    | _ -> continue := false
  done;
  let wall_s = Ic_prof.Monotonic.now () -. t0 in
  let st = Server.stats srv in
  Option.iter
    (fun (j, path) ->
      Ic_served.Journal.close j;
      try Sys.remove path with Sys_error _ -> ())
    j;
  emit
    (record ~bench ~n_tasks:n ~workers:1 ~k ~wall_s ~server:st ~grant_p50:0.0
       ~grant_p99:0.0 ~service_p50:0.0 ~service_p99:0.0)

let virtual_scene ~emit ~bench ~levels ~workers ~k ~churn =
  let g = Mesh.out_mesh levels in
  let scfg =
    Server.config ~n_shards:3 ~max_lease:64 ~expected_s:0.2 ~retry_after_s:0.2
      ~recovery:(Recovery.make ~timeout_factor:4.0 ())
      ()
  in
  let cfg =
    Hammer.config ~workers ~k ~mean_service_s:0.01 ~think_s:0.001 ~churn
      ~seed:0xBE7 ()
  in
  let r = Hammer.run_virtual ~server:scfg cfg g in
  emit
    (record ~bench ~n_tasks:r.Hammer.n_tasks ~workers ~k ~wall_s:r.Hammer.wall_s
       ~server:r.Hammer.server ~grant_p50:r.Hammer.lease_grant_p50_s
       ~grant_p99:r.Hammer.lease_grant_p99_s
       ~service_p50:r.Hammer.task_service_p50_s
       ~service_p99:r.Hammer.task_service_p99_s)

let run ~quick ~emit =
  let levels = if quick then 64 else 256 in
  let workers = if quick then 2_000 else 10_000 in
  let n_pool = if quick then 200_000 else 2_000_000 in
  let n_drain = if quick then 50_000 else 400_000 in
  let n_fsync = if quick then 5_000 else 20_000 in
  pool_scene ~emit ~bench:"pool_pop_k1" ~n:n_pool ~k:1;
  pool_scene ~emit ~bench:"pool_pop_k16" ~n:n_pool ~k:16;
  drain_scene ~emit ~bench:"drain_k1" ~n:n_drain ~k:1 ();
  drain_scene ~emit ~bench:"drain_k16" ~n:n_drain ~k:16 ();
  (* telemetry pricing: the same drain with every meter recorded into a
     Live registry (sharded atomics + gauge sampling per handle);
     compare leased_tasks_per_s against drain_k16 *)
  drain_scene ~emit ~bench:"drain_k16_live" ~n:n_drain ~k:16
    ~live:(Ic_obs.Live.create ()) ();
  (* durability pricing: same drain, journal flushed per append, then
     fsynced per append (smaller n — each record is a disk barrier) *)
  drain_scene ~emit ~bench:"drain_k16_journal" ~n:n_drain ~k:16 ~journal:false
    ();
  drain_scene ~emit ~bench:"drain_k16_journal_fsync" ~n:n_fsync ~k:16
    ~journal:true ();
  virtual_scene ~emit ~bench:"virtual_10k_workers" ~levels ~workers ~k:8
    ~churn:Plan.none;
  virtual_scene ~emit ~bench:"virtual_churn" ~levels ~workers ~k:8
    ~churn:
      (Plan.make ~crash_rate:0.002 ~disconnect_rate:0.02 ~mean_downtime:0.5
         ~seed:11 ())
