(* The parallel-runtime workloads: a dataflow payload executed by
   [Ic_par.Runtime] in IC-priority order on two domains. Each execution
   is paired with a sequential run of the same payload, which is both the
   reference its fingerprint must equal and the base of the speedup. *)

module Runtime = Ic_par.Runtime
module Payload = Ic_par.Payload

let now = E2e.now
let ratio = E2e.ratio
let fi = float_of_int
let domains = 2

let minor_words () = (Gc.quick_stat ()).Gc.minor_words
let major () = (Gc.quick_stat ()).Gc.major_collections

(* One unit builds the payload (set-up) and runs [pairs] sequential and
   parallel executions of it. *)
let par_workload ~family ~size ~spin_us ~pairs =
  let last = ref None and seq_walls = ref [] and par_walls = ref [] in
  let run_unit ~traced =
    let p, setup_s =
      E2e.timed "payload.make" (fun () ->
          let p = Payload.make ~spin_us ~family ~size () in
          ignore (Sys.opaque_identity (Payload.rank p));
          p)
    in
    last := Some p;
    let failed = ref 0 and reference = ref [||] in
    let pair () =
      let seq_fp, seq_s = E2e.timed "engine.execute" (fun () -> Payload.execute p) in
      reference := seq_fp;
      let stats = ref None in
      let executor =
        Runtime.executor ~domains ~order:Runtime.Ic_priority ~priority:(Payload.rank p)
          ~on_stats:(fun s -> stats := Some s)
          ()
      in
      let w0 = minor_words () and m0 = major () and p0 = E2e.process_cpu () in
      let fp, wall_s =
        E2e.timed "runtime.run" (fun () -> Payload.execute ~executor p)
      in
      let cpu_s = E2e.process_cpu () -. p0 in
      if fp <> seq_fp then incr failed;
      let s = Option.get !stats in
      let tasks = fi s.Runtime.tasks in
      let layers =
        if not traced then []
        else begin
          seq_walls := seq_s :: !seq_walls;
          par_walls := wall_s :: !par_walls;
          let per_domain = Array.map fi s.Runtime.per_domain_tasks in
          [
            ( "runtime.steal_success",
              ratio (fi s.Runtime.steals) (fi s.Runtime.steal_attempts) );
            ( "runtime.steal_attempts_per_ktask",
              ratio (fi s.Runtime.steal_attempts *. 1e3) tasks );
            ("runtime.parks_per_ktask", ratio (fi s.Runtime.parks *. 1e3) tasks);
            ("runtime.overflows", fi s.Runtime.overflows);
            ( "runtime.imbalance",
              ratio
                (Array.fold_left Float.max 0.0 per_domain)
                (ratio (Array.fold_left ( +. ) 0.0 per_domain) (fi domains)) );
            ("runtime.cpu_share", ratio cpu_s (wall_s *. fi domains));
            ("engine.seq_ns_per_task", ratio (seq_s *. 1e9) tasks);
            ("gc.minor_words_per_task", ratio (minor_words () -. w0) tasks);
            ("gc.major_collections", fi (major () - m0));
          ]
        end
      in
      { E2e.tasks = s.Runtime.tasks; wall_s; cpu_s; layers }
    in
    let samples = List.init pairs (fun _ -> pair ()) in
    let n = Ic_dag.Dag.n_nodes (Payload.dag p) in
    (* the reference itself must pass the payload's independent check *)
    if not (Payload.check p !reference) then incr failed;
    { E2e.setup_s; samples; attempted = (pairs * (n + 1)) + 1; failed = !failed }
  in
  let probes () =
    let p = Option.get !last in
    let n = fi (Ic_dag.Dag.n_nodes (Payload.dag p)) in
    let wall executor =
      E2e.median
        (List.init 5 (fun _ ->
             let t0 = now () in
             ignore (Payload.execute ?executor p);
             now () -. t0))
    in
    let one_domain =
      Runtime.executor ~domains:1 ~order:Runtime.Ic_priority ~priority:(Payload.rank p) ()
    in
    let overhead = (wall (Some one_domain) -. wall None) /. n *. 1e9 in
    let d = Ic_par.Deque.create ~capacity:1024 in
    [
      ("runtime.speedup", ratio (E2e.median !seq_walls) (E2e.median !par_walls));
      ("runtime.overhead_ns_per_task", overhead);
      ( "deque.pushpop_ns",
        E2e.ns_per_call ~iters:1_000_000 (fun () ->
            ignore (Ic_par.Deque.push d 1);
            ignore (Sys.opaque_identity (Ic_par.Deque.pop d))) );
    ]
  in
  { E2e.run_unit; probes; finish = ignore }

(* 4. par-fine: tasks of ~1 us, so the runtime's own bookkeeping (pool,
   deques, steals, parks, ~250 ns a task) is a fifth of the work. With
   ~80 ns tasks it is nearly all of it, but then throughput follows how
   fast the two cores exchange cache lines, which on a shared virtual
   machine moved by a quarter between otherwise identical sets of runs. *)
let par_fine ~seed:_ =
  par_workload ~family:"wavefront" ~size:200 ~spin_us:1.0 ~pairs:5

(* 5. par-coarse: tasks of ~5 us, so the payload dominates *)
let par_coarse ~seed:_ = par_workload ~family:"fft" ~size:12 ~spin_us:5.0 ~pairs:2
