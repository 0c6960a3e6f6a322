module Dag = Ic_dag.Dag
module Policy = Ic_heuristics.Policy
module Sim = Ic_sim.Simulator
module Workload = Ic_sim.Workload
module Assessment = Ic_sim.Assessment
module Plan = Ic_fault.Plan
module Recovery = Ic_fault.Recovery

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mesh = Ic_families.Mesh.out_mesh 8

let run ?(config = Sim.config ()) ?(workload = Workload.unit) policy g =
  Sim.run config policy ~workload g

let test_executes_everything () =
  let r = run Policy.fifo mesh in
  check_int "all allocated" (Dag.n_nodes mesh) (List.length r.Sim.allocation_order);
  check_int "all completed" (Dag.n_nodes mesh) (List.length r.Sim.completion_order);
  let sorted = List.sort compare r.Sim.completion_order in
  Alcotest.(check (list int)) "each exactly once"
    (List.init (Dag.n_nodes mesh) Fun.id) sorted

let test_allocation_respects_completions () =
  (* a task may only be allocated after all its parents completed *)
  let r = run ~config:(Sim.config ~n_clients:5 ~jitter:0.8 ()) Policy.lifo mesh in
  let completed_at = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.add completed_at v i) r.Sim.completion_order;
  (* walk allocations in order, tracking how many completions must have
     happened: allocation i occurs after completion index c(i); rebuild by
     replaying: we know parents must appear in completion_order before the
     child appears in allocation_order *)
  let alloc_pos = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.add alloc_pos v i) r.Sim.allocation_order;
  (* weaker but sufficient invariant: a child is allocated after each parent
     is allocated (completion implies allocation) *)
  Dag.iter_arcs mesh (fun u v ->
      check "parent allocated before child" true
        (Hashtbl.find alloc_pos u < Hashtbl.find alloc_pos v))

let test_single_client_no_stalls () =
  let r = run ~config:(Sim.config ~n_clients:1 ()) Policy.fifo mesh in
  check_int "no stalls with one client" 0 r.Sim.stalls;
  check "full utilization" true (r.Sim.utilization > 0.999)

let test_deterministic () =
  let a = run Policy.fifo mesh and b = run Policy.fifo mesh in
  check "same makespan" true (a.Sim.makespan = b.Sim.makespan);
  check "same orders" true (a.Sim.completion_order = b.Sim.completion_order)

let test_utilization_bounds () =
  let r = run ~config:(Sim.config ~n_clients:6 ~jitter:0.5 ()) Policy.fifo mesh in
  check "utilization in (0, 1]" true (r.Sim.utilization > 0.0 && r.Sim.utilization <= 1.0 +. 1e-9);
  check "makespan positive" true (r.Sim.makespan > 0.0);
  check "busy <= clients * makespan" true
    (r.Sim.busy_time <= (6.0 *. r.Sim.makespan) +. 1e-9)

let test_makespan_lower_bound () =
  (* with unit work, zero jitter and unit speeds: makespan >= n / clients *)
  let cfg = Sim.config ~n_clients:4 ~jitter:0.0 () in
  let r = run ~config:cfg Policy.fifo mesh in
  let n = float_of_int (Dag.n_nodes mesh) in
  check "work conservation" true (r.Sim.makespan >= (n /. 4.0) -. 1e-9);
  (* and >= critical path length *)
  check "critical path bound" true
    (r.Sim.makespan >= float_of_int (Dag.longest_path mesh + 1) -. 1e-9)

let test_heterogeneous_speeds () =
  let cfg = Sim.config ~n_clients:2 ~speed:(fun i -> if i = 0 then 4.0 else 1.0) ~jitter:0.0 () in
  let chain = Dag.make_exn ~n:3 ~arcs:[ (0, 1); (1, 2) ] () in
  let r = run ~config:cfg Policy.fifo chain in
  (* fast client takes task 0 (0.25); the stalled slow client is served
     first on completion, so it runs task 1 (1.0); the fast one finishes
     with task 2 (0.25): makespan 1.5 exactly *)
  check "hand-computed makespan" true (Float.abs (r.Sim.makespan -. 1.5) < 1e-9)

let test_gridlock_on_chain () =
  (* a pure chain with many clients: everyone but one stalls *)
  let chain = Dag.make_exn ~n:4 ~arcs:[ (0, 1); (1, 2); (2, 3) ] () in
  let r = run ~config:(Sim.config ~n_clients:3 ~jitter:0.0 ()) Policy.fifo chain in
  check "stalls recorded" true (r.Sim.stalls >= 2);
  check "stall time positive" true (r.Sim.stall_time > 0.0)

let test_workloads () =
  let rnd = Workload.random_uniform ~seed:7 ~lo:1.0 ~hi:3.0 in
  check "deterministic per task" true (rnd mesh 5 = rnd mesh 5);
  check "in range" true (rnd mesh 5 >= 1.0 && rnd mesh 5 <= 3.0);
  check "unit" true (Workload.unit mesh 3 = 1.0);
  check "constant" true (Workload.constant 2.5 mesh 0 = 2.5);
  check "by_height heavier at sources" true
    (Workload.by_height 1.0 mesh 0 > Workload.by_height 1.0 mesh (Dag.n_nodes mesh - 1))

let test_empty_dag () =
  let r = run Policy.fifo (Dag.empty 0) in
  check "zero makespan" true (r.Sim.makespan = 0.0);
  check_int "nothing stalls" 0 r.Sim.stalls;
  (* regression: derived ratios on a zero makespan must be well-defined
     zeros, not NaN (division by zero) or a fictitious 1.0 *)
  check "utilization is zero" true (r.Sim.utilization = 0.0);
  check "mean eligible is zero" true (r.Sim.mean_eligible = 0.0);
  check "nothing is NaN" true
    (Float.is_finite r.Sim.utilization && Float.is_finite r.Sim.mean_eligible
    && Float.is_finite r.Sim.busy_time);
  (* many isolated nodes but zero work behaves the same way *)
  let r0 = run ~workload:(Workload.constant 0.0) Policy.fifo (Dag.empty 5) in
  check "zero-work utilization" true (r0.Sim.utilization = 0.0);
  check "zero-work mean eligible finite" true (Float.is_finite r0.Sim.mean_eligible)

(* --- assessment harness --- *)

let test_assessment_theory_never_loses () =
  let theory = Ic_families.Mesh.out_schedule 8 in
  let rows = Assessment.compare_policies mesh ~theory in
  check "has theory + baselines" true (List.length rows = 7);
  List.iter
    (fun r ->
      check_int
        (Printf.sprintf "profile losses vs %s" r.Assessment.policy)
        0 r.Assessment.profile_losses)
    rows

let test_assessment_theory_row_first () =
  let theory = Ic_families.Butterfly_net.schedule 4 in
  let g = Ic_families.Butterfly_net.dag 4 in
  match Assessment.compare_policies g ~theory with
  | first :: _ ->
    check "named ic-optimal" true (first.Assessment.policy = "ic-optimal");
    check_int "theory wins = 0 vs itself" 0 first.Assessment.profile_wins
  | [] -> Alcotest.fail "no rows"

let test_single_client_is_list_schedule () =
  (* one reliable client with no jitter executes exactly the policy's list
     schedule, one task at a time *)
  let cfg = Sim.config ~n_clients:1 ~jitter:0.0 () in
  let r = run ~config:cfg Policy.fifo mesh in
  let expected = Ic_dag.Schedule.order (Policy.run Policy.fifo mesh) in
  Alcotest.(check (list int)) "completion order = list schedule"
    (Array.to_list expected) r.Sim.completion_order;
  check "makespan = #tasks" true
    (Float.abs (r.Sim.makespan -. float_of_int (Dag.n_nodes mesh)) < 1e-9)

let test_unreliable_clients () =
  (* with failures, everything still completes exactly once, and lost
     allocations are accounted *)
  let faults = Plan.make ~fail_probability:0.3 () in
  let cfg = Sim.config ~n_clients:4 ~faults ~seed:11 () in
  let r = run ~config:cfg Policy.fifo mesh in
  check_int "all completed once" (Dag.n_nodes mesh)
    (List.length r.Sim.completion_order);
  Alcotest.(check (list int)) "exactly once"
    (List.init (Dag.n_nodes mesh) Fun.id)
    (List.sort compare r.Sim.completion_order);
  check "failures happened" true (r.Sim.failures > 0);
  check_int "allocations = tasks + failures"
    (Dag.n_nodes mesh + r.Sim.failures)
    (List.length r.Sim.allocation_order);
  (* reliability costs time: same seed without failures is faster *)
  let r0 = run ~config:(Sim.config ~n_clients:4 ~seed:11 ()) Policy.fifo mesh in
  check "failures slow things down" true (r.Sim.makespan > r0.Sim.makespan);
  check_int "no failures by default" 0 r0.Sim.failures;
  match Plan.make ~fail_probability:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q = 1 must be rejected"

let test_comm_costs () =
  (* free communication = the old behaviour; pricey communication adds
     exactly one transfer per cross-client dependence (plus server input
     for sources) *)
  let chain = Dag.make_exn ~n:3 ~arcs:[ (0, 1); (1, 2) ] () in
  let free = run ~config:(Sim.config ~n_clients:1 ~jitter:0.0 ()) Policy.fifo chain in
  check_int "no comm when free" 0 (int_of_float free.Sim.comm_total);
  (* one client: only the source's server transfer costs *)
  let cfg = Sim.config ~n_clients:1 ~jitter:0.0 ~comm_time:2.0 () in
  let r = run ~config:cfg Policy.fifo chain in
  check "single client pays only the input transfer" true
    (Float.abs (r.Sim.comm_total -. 2.0) < 1e-9);
  check "makespan = work + comm" true (Float.abs (r.Sim.makespan -. 5.0) < 1e-9)

let test_granularity_rows () =
  (* direct unit coverage for the study's row table, beyond the headline
     crossover: shape, free-communication invariants, task-count monotonicity *)
  let blocks = [ 1; 2 ] and comm_times = [ 0.0; 4.0 ] in
  let rows =
    Ic_sim.Granularity_study.mesh_crossover ~levels:9 ~blocks ~comm_times
      ~n_clients:4 ()
  in
  check_int "one row per (price, block)"
    (List.length blocks * List.length comm_times)
    (List.length rows);
  List.iter
    (fun r ->
      check "priced rows only at requested prices" true
        (List.mem r.Ic_sim.Granularity_study.comm_time comm_times);
      check "blocks only as requested" true
        (List.mem r.Ic_sim.Granularity_study.block blocks);
      check "positive makespan" true (r.Ic_sim.Granularity_study.makespan > 0.0);
      if r.Ic_sim.Granularity_study.comm_time = 0.0 then
        check "free communication costs nothing" true
          (r.Ic_sim.Granularity_study.comm_total = 0.0))
    rows;
  (* coarsening shrinks the dag, independent of price *)
  let tasks_at block =
    match
      List.find_opt (fun r -> r.Ic_sim.Granularity_study.block = block) rows
    with
    | Some r -> r.Ic_sim.Granularity_study.n_tasks
    | None -> Alcotest.fail "missing block row"
  in
  check "coarse has fewer tasks" true (tasks_at 2 < tasks_at 1);
  match Ic_sim.Granularity_study.best_block rows 3.14 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "best_block at an unknown price must raise"

let test_burst_edge_cases () =
  (* invalid burst *)
  (match Ic_sim.Burst.of_profile ~burst:0 [| 1; 2 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "burst 0 must raise");
  (match Ic_sim.Burst.of_profile ~burst:(-3) [| 1 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative burst must raise");
  (* empty profile: nothing offered, vacuously fully served *)
  let e = Ic_sim.Burst.of_profile ~burst:4 [||] in
  check_int "empty offered" 0 e.Ic_sim.Burst.offered;
  check_int "empty served" 0 e.Ic_sim.Burst.served;
  check "empty rate well-defined" true (e.Ic_sim.Burst.service_rate = 1.0);
  (* of_schedule agrees with a hand-computed nonsink profile: the 3-node
     chain 0->1->2 has nonsink profile [1;1;1] (exactly one task is eligible
     after 0, 1 and 2 nonsink executions), so burst 2 serves 3 of 6 *)
  let chain = Dag.make_exn ~n:3 ~arcs:[ (0, 1); (1, 2) ] () in
  let s = Ic_dag.Schedule.of_array_exn chain [| 0; 1; 2 |] in
  let b = Ic_sim.Burst.of_schedule ~burst:2 chain s in
  check_int "chain served" 3 b.Ic_sim.Burst.served;
  check_int "chain offered" 6 b.Ic_sim.Burst.offered;
  check "chain rate" true (Float.abs (b.Ic_sim.Burst.service_rate -. 0.5) < 1e-12)

let test_granularity_crossover () =
  let rows =
    Ic_sim.Granularity_study.mesh_crossover ~levels:11 ~blocks:[ 1; 4 ]
      ~comm_times:[ 0.0; 8.0 ] ~n_clients:8 ()
  in
  Alcotest.(check int) "fine wins when communication is free" 1
    (Ic_sim.Granularity_study.best_block rows 0.0);
  Alcotest.(check int) "coarse wins when communication is dear" 4
    (Ic_sim.Granularity_study.best_block rows 8.0)

(* --- burst (batch-request) service, scenario (2) of section 2.2 --- *)

let test_burst_basic () =
  (* profile [2;1;2]: with burst 2 the server serves 2+1+2 = 5 of 6 *)
  let b = Ic_sim.Burst.of_profile ~burst:2 [| 2; 1; 2 |] in
  check_int "served" 5 b.Ic_sim.Burst.served;
  check_int "offered" 6 b.Ic_sim.Burst.offered;
  check "rate" true (Float.abs (b.Ic_sim.Burst.service_rate -. (5.0 /. 6.0)) < 1e-12);
  (* burst 1 is fully served whenever the profile never hits 0 *)
  let b1 = Ic_sim.Burst.of_profile ~burst:1 [| 2; 1; 2 |] in
  check "burst 1 full" true (b1.Ic_sim.Burst.service_rate = 1.0)

let test_burst_theory_dominates () =
  (* pointwise-higher profiles serve pointwise more requests, for every
     burst size: IC-optimal beats LIFO on the mesh *)
  let g = Ic_families.Mesh.out_mesh 10 in
  let theory = Ic_families.Mesh.out_schedule 10 in
  let lifo = Policy.run Policy.lifo g in
  (* renormalize lifo to nonsinks-first form for a fair comparison *)
  let lifo =
    Ic_dag.Schedule.of_nonsink_order_exn g (Ic_dag.Schedule.nonsink_prefix g lifo)
  in
  List.iter
    (fun burst ->
      let a = Ic_sim.Burst.of_schedule ~burst g theory in
      let b = Ic_sim.Burst.of_schedule ~burst g lifo in
      check
        (Printf.sprintf "burst %d" burst)
        true
        (a.Ic_sim.Burst.served >= b.Ic_sim.Burst.served))
    [ 1; 2; 4; 8 ]

let test_burst_sweep () =
  let g = Ic_families.Butterfly_net.dag 4 in
  let sweep =
    Ic_sim.Burst.sweep ~bursts:[ 1; 4; 16 ] g (Ic_families.Butterfly_net.schedule 4)
  in
  check_int "three entries" 3 (List.length sweep);
  (* service rate decreases (weakly) as bursts grow *)
  match List.map snd sweep with
  | [ a; b; c ] -> check "monotone" true (a >= b && b >= c)
  | _ -> Alcotest.fail "unexpected sweep shape"

(* --- fault injection and recovery (Ic_fault) --- *)

(* the run either finished with every task completed exactly once, or
   aborted with [completed] and [unfinished] partitioning the dag *)
let check_partition g (r : Sim.result) =
  let n = Dag.n_nodes g in
  let completed = List.sort compare r.Sim.completion_order in
  check "completed exactly once" true
    (List.length completed =
       List.length (List.sort_uniq compare completed));
  (match r.Sim.outcome with
  | Sim.Finished ->
    Alcotest.(check (list int)) "finished = permutation"
      (List.init n Fun.id) completed;
    Alcotest.(check (list int)) "finished has no leftovers" [] r.Sim.unfinished
  | Sim.Aborted _ ->
    check "aborted leaves work" true (r.Sim.unfinished <> []);
    Alcotest.(check (list int)) "completed + unfinished = all tasks"
      (List.init n Fun.id)
      (List.sort compare (completed @ r.Sim.unfinished)));
  check "unfinished ascending" true
    (r.Sim.unfinished = List.sort compare r.Sim.unfinished)

let test_fault_config_validation () =
  (match Sim.config ~jitter:(-0.1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative jitter must be rejected");
  (match Sim.config ~jitter:Float.nan () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN jitter must be rejected");
  (match run ~config:(Sim.config ~speed:(fun _ -> 0.0) ()) Policy.fifo mesh with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero speed must be rejected");
  (match
     run ~config:(Sim.config ~speed:(fun i -> if i = 2 then -1.0 else 1.0) ())
       Policy.fifo mesh
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative speed must be rejected");
  (match Plan.make ~crash_rate:(-0.1) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative crash rate must be rejected");
  (match Plan.make ~loss_probability:1.0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "loss probability 1 must be rejected");
  (match Plan.make ~straggler_probability:0.5 ~straggler_factor:0.5 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "straggler factor < 1 must be rejected");
  (match Recovery.make ~backoff_jitter:(-0.5) () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative backoff jitter must be rejected");
  (match Recovery.make ~max_replicas:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero replicas must be rejected");
  check "none is none" true (Plan.is_none Plan.none);
  check "crash plan is not none" false
    (Plan.is_none (Plan.make ~crash_rate:0.1 ()))

let test_crash_recovery () =
  (* clients crash permanently; liveness timeouts re-release their tasks *)
  let cfg =
    Sim.config ~n_clients:8 ~seed:3
      ~faults:(Plan.make ~crash_rate:0.04 ())
      ~recovery:
        (Recovery.make ~timeout_factor:3.0 ~detection_latency:0.25
           ~backoff_base:0.1 ~backoff_jitter:0.5 ())
      ()
  in
  let r = run ~config:cfg Policy.fifo mesh in
  check_partition mesh r;
  check "clients crashed" true (r.Sim.crashes > 0);
  check "timeouts recovered the orphans" true
    (r.Sim.crashes = 0 || r.Sim.timeouts > 0)

let test_loss_needs_timeouts () =
  (* silent loss with liveness timeouts disabled: the heap drains with
     work remaining, and the run must abort cleanly instead of spinning *)
  let faults = Plan.make ~loss_probability:0.4 ~seed:2 () in
  let cfg = Sim.config ~n_clients:4 ~seed:2 ~faults () in
  let r = run ~config:cfg Policy.fifo mesh in
  check "lost results" true (r.Sim.lost > 0);
  check "no timeouts configured" true (r.Sim.timeouts = 0);
  (match r.Sim.outcome with
  | Sim.Aborted Sim.No_progress -> ()
  | _ -> Alcotest.fail "loss without timeouts must abort with no-progress");
  check_partition mesh r;
  (* the same plan with timeouts enabled finishes *)
  let cfg =
    Sim.config ~n_clients:4 ~seed:2 ~faults
      ~recovery:(Recovery.make ~timeout_factor:3.0 ())
      ()
  in
  let r = run ~config:cfg Policy.fifo mesh in
  check "timeouts fired" true (r.Sim.timeouts > 0);
  check_partition mesh r;
  (match r.Sim.outcome with
  | Sim.Finished -> ()
  | _ -> Alcotest.fail "timeouts must recover every lost result")

let test_speculation_dedup () =
  (* stragglers trigger speculative replicas; first result wins and the
     task still completes exactly once *)
  let cfg =
    Sim.config ~n_clients:6 ~seed:9
      ~faults:
        (Plan.make ~straggler_probability:0.4 ~straggler_factor:10.0 ())
      ~recovery:(Recovery.make ~speculation_factor:1.5 ~max_replicas:2 ())
      ()
  in
  let r = run ~config:cfg Policy.fifo mesh in
  check_partition mesh r;
  check "speculation happened" true (r.Sim.speculations > 0);
  check "replicas are extra allocations" true
    (List.length r.Sim.allocation_order
    = Dag.n_nodes mesh + r.Sim.speculations);
  check "cancellations bounded by replicas" true
    (r.Sim.cancelled <= r.Sim.speculations);
  (* speculation beats waiting out the stragglers *)
  let slow =
    run
      ~config:
        (Sim.config ~n_clients:6 ~seed:9
           ~faults:
             (Plan.make ~straggler_probability:0.4 ~straggler_factor:10.0 ())
           ())
      Policy.fifo mesh
  in
  check "speculation helps" true (r.Sim.makespan < slow.Sim.makespan)

let test_retry_budget_abort () =
  (* every attempt fails and the budget is tiny: graceful degradation *)
  let cfg =
    Sim.config ~n_clients:4 ~seed:5
      ~faults:(Plan.make ~fail_probability:0.9 ())
      ~recovery:(Recovery.make ~max_retries:2 ())
      ()
  in
  let r = run ~config:cfg Policy.fifo mesh in
  (match r.Sim.outcome with
  | Sim.Aborted (Sim.Retry_budget _) -> ()
  | _ -> Alcotest.fail "exhausted retries must abort");
  check_partition mesh r;
  check "partial progress possible" true
    (List.length r.Sim.completion_order < Dag.n_nodes mesh)

let test_deadline_abort () =
  (* mesh-8 on two unit-speed clients needs >= 18 time units; a deadline
     of 4 must cut it off with the descendant cone unfinished *)
  let cfg =
    Sim.config ~n_clients:2 ~jitter:0.0
      ~recovery:(Recovery.make ~deadline:4.0 ())
      ()
  in
  let r = run ~config:cfg Policy.fifo mesh in
  (match r.Sim.outcome with
  | Sim.Aborted Sim.Deadline -> ()
  | _ -> Alcotest.fail "deadline must abort");
  check_partition mesh r;
  check "stopped near the deadline" true (r.Sim.makespan <= 4.0 +. 1e-9)

let test_disconnect_rejoin () =
  (* transient disconnects with rejoin: the run still finishes as long as
     in-flight work is recovered by timeouts *)
  let cfg =
    Sim.config ~n_clients:4 ~seed:7
      ~faults:(Plan.make ~disconnect_rate:0.08 ~mean_downtime:1.5 ())
      ~recovery:(Recovery.make ~timeout_factor:3.0 ~detection_latency:0.25 ())
      ()
  in
  let r = run ~config:cfg Policy.lifo mesh in
  check_partition mesh r;
  check "disconnects happened" true (r.Sim.disconnects > 0);
  (match r.Sim.outcome with
  | Sim.Finished -> ()
  | _ -> Alcotest.fail "rejoining clients must finish the run")

let test_fault_metrics () =
  (* the metrics registry separates per-attempt latency from end-to-end
     latency: attempts >= completions under retries/stragglers *)
  let live = Ic_obs.Live.create () in
  let cfg =
    Sim.config ~n_clients:6 ~seed:13
      ~faults:
        (Plan.make ~straggler_probability:0.3 ~straggler_factor:6.0
           ~fail_probability:0.2 ())
      ~recovery:
        (Recovery.make ~timeout_factor:4.0 ~speculation_factor:2.0
           ~backoff_base:0.1 ~backoff_jitter:0.5 ())
      ()
  in
  let r = Sim.run ~live cfg Policy.fifo ~workload:Workload.unit mesh in
  check_partition mesh r;
  let count name =
    Ic_obs.Live.counter_value (Ic_obs.Live.counter live name)
  in
  let hist name =
    (Ic_obs.Live.histogram_snapshot (Ic_obs.Live.histogram live name))
      .Ic_obs.Live.count
  in
  let latency = hist "sim.task_latency" and e2e = hist "sim.task_e2e_latency" in
  check_int "completed counter" (List.length r.Sim.completion_order)
    (count "sim.tasks_completed");
  check_int "e2e latency: one sample per completed task"
    (List.length r.Sim.completion_order)
    e2e;
  check "attempt latency >= e2e samples" true (latency >= e2e);
  check_int "retries counter" r.Sim.retries (count "sim.retries");
  check_int "speculations counter" r.Sim.speculations
    (count "sim.speculations")

let test_fault_determinism () =
  (* the acceptance bar: identical seeds => identical results, faults,
     recovery and all *)
  let cfg =
    Sim.config ~n_clients:5 ~seed:21
      ~faults:
        (Plan.make ~crash_rate:0.02 ~straggler_probability:0.3
           ~straggler_factor:8.0 ~loss_probability:0.15 ~fail_probability:0.1
           ())
      ~recovery:
        (Recovery.make ~timeout_factor:3.0 ~detection_latency:0.25
           ~backoff_base:0.1 ~backoff_jitter:0.5 ~speculation_factor:2.5 ())
      ()
  in
  let a = run ~config:cfg Policy.max_out_degree mesh in
  let b = run ~config:cfg Policy.max_out_degree mesh in
  check "identical results" true (a = b);
  (* and the traces agree event for event *)
  let trace cfg =
    let tr = Ic_obs.Trace.create () in
    ignore (Sim.run ~sink:tr cfg Policy.fifo ~workload:Workload.unit mesh);
    Ic_obs.Trace.to_array tr
  in
  check "identical traces" true (trace cfg = trace cfg)

let harsh_faults =
  Plan.make ~straggler_probability:0.3 ~straggler_factor:6.0
    ~loss_probability:0.2 ~fail_probability:0.2 ()

let harsh_recovery =
  Recovery.make ~timeout_factor:3.0 ~detection_latency:0.25 ~backoff_base:0.1
    ~backoff_jitter:0.5 ~speculation_factor:2.0 ()

let prop_fault_tolerance_all_policies =
  (* under crash-free but otherwise harsh fault plans (loss + stragglers +
     reported failures) with timeouts and unbounded retries, every policy
     completes every task exactly once, reproducibly *)
  QCheck2.Test.make ~name:"fault tolerance across policies" ~count:25
    QCheck2.Gen.(pair (int_range 1 30) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability:0.2 in
      let cfg =
        Sim.config ~n_clients:3 ~jitter:0.3 ~seed ~faults:harsh_faults
          ~recovery:harsh_recovery ()
      in
      List.for_all
        (fun policy ->
          let r = Sim.run cfg policy ~workload:Workload.unit g in
          let again = Sim.run cfg policy ~workload:Workload.unit g in
          r.Sim.outcome = Sim.Finished
          && List.sort compare r.Sim.completion_order = List.init n Fun.id
          && r = again)
        Policy.baselines)

let prop_crash_partition =
  (* add permanent crashes: the run either finishes or aborts cleanly,
     and completed + unfinished always partition the dag *)
  QCheck2.Test.make ~name:"crashes finish or abort cleanly" ~count:25
    QCheck2.Gen.(pair (int_range 1 30) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability:0.2 in
      let cfg =
        Sim.config ~n_clients:3 ~jitter:0.3 ~seed
          ~faults:
            (Plan.make ~crash_rate:0.05 ~straggler_probability:0.3
               ~straggler_factor:6.0 ~loss_probability:0.2 ())
          ~recovery:harsh_recovery ()
      in
      let r = Sim.run cfg Policy.fifo ~workload:Workload.unit g in
      let completed = List.sort compare r.Sim.completion_order in
      List.length completed = List.length (List.sort_uniq compare completed)
      && List.sort compare (completed @ r.Sim.unfinished) = List.init n Fun.id
      && (r.Sim.outcome <> Sim.Finished || r.Sim.unfinished = []))

let prop_sim_valid_on_random_dags =
  QCheck2.Test.make ~name:"sim invariants on random dags" ~count:40
    QCheck2.Gen.(pair (int_range 1 40) (int_bound 10_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Ic_dag.Gen.random_dag rng ~n ~arc_probability:0.2 in
      let r =
        Sim.run (Sim.config ~n_clients:3 ~jitter:0.3 ~seed ()) Policy.fifo
          ~workload:Workload.unit g
      in
      List.length r.Sim.completion_order = n
      && r.Sim.utilization <= 1.0 +. 1e-9
      && r.Sim.stall_time >= 0.0)

(* --- the shared churn stream (Ic_fault.Plan.Churn) --------------------- *)

let churn_plan =
  Plan.make ~crash_rate:0.05 ~disconnect_rate:0.5 ~mean_downtime:0.4 ~seed:77 ()

let test_churn_stream_shape () =
  (* strictly increasing times; Disconnect/Rejoin alternate; Crash is
     terminal; rejoin time = disconnect time + the carried downtime *)
  for client = 0 to 49 do
    let c = Plan.Churn.create churn_plan ~client in
    let last_t = ref neg_infinity in
    let down_until = ref None in
    let crashed = ref false in
    let continue = ref true in
    let steps = ref 0 in
    while !continue && !steps < 1000 do
      incr steps;
      match Plan.Churn.next c with
      | None -> continue := false
      | Some { Plan.Churn.time; kind } ->
        if !crashed then Alcotest.fail "event after Crash";
        if time <= !last_t then Alcotest.fail "times not strictly increasing";
        last_t := time;
        (match (kind, !down_until) with
        | Plan.Churn.Crash, _ -> crashed := true
        | Plan.Churn.Disconnect d, None ->
          if d <= 0.0 then Alcotest.fail "non-positive downtime";
          down_until := Some (time +. d)
        | Plan.Churn.Rejoin, Some due ->
          Alcotest.(check (float 1e-9)) "rejoin at disconnect + downtime" due time;
          down_until := None
        | Plan.Churn.Disconnect _, Some _ -> Alcotest.fail "disconnect while down"
        | Plan.Churn.Rejoin, None -> Alcotest.fail "rejoin while up")
    done
  done

let test_churn_stream_matches_samplers () =
  (* the stream is exactly the raw samplers folded into a timeline *)
  let plan = Plan.make ~disconnect_rate:1.0 ~mean_downtime:0.3 ~seed:5 () in
  let c = Plan.Churn.create plan ~client:3 in
  let gap0, down0 =
    match Plan.disconnect plan ~client:3 ~k:0 with
    | Some gd -> gd
    | None -> Alcotest.fail "sampler disabled"
  in
  (match Plan.Churn.next c with
  | Some { Plan.Churn.time; kind = Plan.Churn.Disconnect d } ->
    Alcotest.(check (float 1e-9)) "first episode at gap0" gap0 time;
    Alcotest.(check (float 1e-9)) "downtime from the sampler" down0 d
  | _ -> Alcotest.fail "expected Disconnect");
  (match Plan.Churn.next c with
  | Some { Plan.Churn.time; kind = Plan.Churn.Rejoin } ->
    Alcotest.(check (float 1e-9)) "rejoin" (gap0 +. down0) time
  | _ -> Alcotest.fail "expected Rejoin");
  (* identically seeded cursors replay the identical stream *)
  let replay cur =
    let rec go acc n =
      if n = 0 then List.rev acc
      else
        match Plan.Churn.next cur with
        | None -> List.rev acc
        | Some e -> go ((e.Plan.Churn.time, e.Plan.Churn.kind) :: acc) (n - 1)
    in
    go [] 20
  in
  let a = replay (Plan.Churn.create churn_plan ~client:9) in
  let b = replay (Plan.Churn.create churn_plan ~client:9) in
  if a <> b then Alcotest.fail "cursor replay differs";
  (* and [events] agrees with a bounded pull of [next] *)
  let horizon = 3.0 in
  let eager = Plan.Churn.events churn_plan ~client:9 ~horizon in
  let pulled =
    List.filter (fun (t, _) -> t <= horizon) a
    |> List.map (fun (time, kind) -> { Plan.Churn.time; kind })
  in
  if eager <> pulled then Alcotest.fail "events disagrees with next"

let () =
  Alcotest.run "ic_sim"
    [
      ( "simulator",
        [
          Alcotest.test_case "executes everything once" `Quick test_executes_everything;
          Alcotest.test_case "allocation respects precedence" `Quick
            test_allocation_respects_completions;
          Alcotest.test_case "single client never stalls" `Quick
            test_single_client_no_stalls;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "utilization bounds" `Quick test_utilization_bounds;
          Alcotest.test_case "makespan bounds" `Quick test_makespan_lower_bound;
          Alcotest.test_case "heterogeneous speeds" `Quick test_heterogeneous_speeds;
          Alcotest.test_case "gridlock on a chain" `Quick test_gridlock_on_chain;
          Alcotest.test_case "workload models" `Quick test_workloads;
          Alcotest.test_case "empty dag" `Quick test_empty_dag;
          Alcotest.test_case "single client = list schedule" `Quick
            test_single_client_is_list_schedule;
          Alcotest.test_case "unreliable clients" `Quick test_unreliable_clients;
          Alcotest.test_case "communication costs" `Quick test_comm_costs;
          Alcotest.test_case "granularity crossover" `Quick test_granularity_crossover;
          Alcotest.test_case "granularity rows" `Quick test_granularity_rows;
        ] );
      ( "assessment",
        [
          Alcotest.test_case "theory never loses (mesh)" `Quick
            test_assessment_theory_never_loses;
          Alcotest.test_case "row order" `Quick test_assessment_theory_row_first;
        ] );
      ( "burst service",
        [
          Alcotest.test_case "by hand" `Quick test_burst_basic;
          Alcotest.test_case "theory dominates" `Quick test_burst_theory_dominates;
          Alcotest.test_case "sweep" `Quick test_burst_sweep;
          Alcotest.test_case "edge cases" `Quick test_burst_edge_cases;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "config validation" `Quick
            test_fault_config_validation;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "loss needs timeouts" `Quick
            test_loss_needs_timeouts;
          Alcotest.test_case "speculation dedup" `Quick test_speculation_dedup;
          Alcotest.test_case "retry budget abort" `Quick test_retry_budget_abort;
          Alcotest.test_case "deadline abort" `Quick test_deadline_abort;
          Alcotest.test_case "disconnect and rejoin" `Quick
            test_disconnect_rejoin;
          Alcotest.test_case "fault metrics" `Quick test_fault_metrics;
          Alcotest.test_case "seeded fault determinism" `Quick
            test_fault_determinism;
        ] );
      ( "churn stream",
        [
          Alcotest.test_case "well-formed timelines" `Quick
            test_churn_stream_shape;
          Alcotest.test_case "matches the raw samplers" `Quick
            test_churn_stream_matches_samplers;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_sim_valid_on_random_dags;
            prop_fault_tolerance_all_policies;
            prop_crash_partition;
          ] );
    ]
