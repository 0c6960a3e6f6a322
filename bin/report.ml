(* Regenerates every experiment of DESIGN.md's per-experiment index
   (E1..E16) and prints the measured tables recorded in EXPERIMENTS.md.

   dune exec bin/report.exe            -- all experiments
   dune exec bin/report.exe e8 e16     -- a selection *)

module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Profile = Ic_dag.Profile
module Optimal = Ic_dag.Optimal
module F = Ic_families
module G = Ic_granularity

let pf = Format.printf

let verdict g s =
  match Optimal.is_ic_optimal g s with
  | Ok true -> "IC-optimal"
  | Ok false -> "NOT optimal"
  | Error (`Too_large _) -> "too large for brute force"

let profile_string p =
  "["
  ^ String.concat ";" (Array.to_list (Array.map string_of_int p))
  ^ "]"

let header id title =
  pf "@.==== %s: %s ====@." (String.uppercase_ascii id) title

let e1 () =
  header "e1" "building blocks (Fig. 1) and the repertoire";
  pf "%-6s %6s %6s  %-24s %s@." "block" "nodes" "arcs" "nonsink profile" "verdict";
  List.iter
    (fun (b : Ic_blocks.Repertoire.t) ->
      pf "%-6s %6d %6d  %-24s %s@." b.name (Dag.n_nodes b.dag) (Dag.n_arcs b.dag)
        (profile_string (Profile.nonsink_profile b.dag b.schedule))
        (verdict b.dag b.schedule))
    Ic_blocks.Repertoire.all

let e2 () =
  header "e2" "expansion-reduction diamonds (Fig. 2)";
  List.iter
    (fun depth ->
      let d = F.Diamond.complete ~arity:2 ~depth in
      let g = F.Diamond.dag d and s = F.Diamond.schedule d in
      pf "diamond depth %d: %3d tasks, %s, profile %s@." depth (Dag.n_nodes g)
        (verdict g s)
        (profile_string (Profile.nonsink_profile g s)))
    [ 1; 2; 3 ];
  let rng = Random.State.make [| 7 |] in
  let d = F.Diamond.symmetric (F.Out_tree.random rng ~max_internal:7 ~arity:2) in
  pf "irregular diamond (random subdivision): %d tasks, %s@."
    (Dag.n_nodes (F.Diamond.dag d))
    (verdict (F.Diamond.dag d) (F.Diamond.schedule d))

let e3 () =
  header "e3" "coarsened diamonds (Fig. 3)";
  let d = F.Diamond.complete ~arity:2 ~depth:4 in
  let fine = F.Diamond.dag d in
  let partial = G.Coarsen_diamond.coarsen d ~subtree_roots:[ 2; 9 ] in
  let uniform = G.Coarsen_diamond.uniform d ~depth:2 in
  pf "fine diamond: %d tasks@." (Dag.n_nodes fine);
  pf "Fig.3-style partial coarsening (2 subtree pairs): %d tasks, admits IC-optimal: %b@."
    (Dag.n_nodes partial.G.Cluster.coarse)
    (Result.get_ok (Optimal.admits_ic_optimal partial.G.Cluster.coarse));
  pf "uniform truncation at depth 2: %d tasks, admits IC-optimal: %b@."
    (Dag.n_nodes uniform.G.Cluster.coarse)
    (Result.get_ok (Optimal.admits_ic_optimal uniform.G.Cluster.coarse))

let e4_e5 () =
  header "e4/e5" "alternating compositions (Fig. 4) and Table 1";
  let s1 = F.Out_tree.complete ~arity:2 ~depth:1 in
  let s2 = F.Out_tree.complete ~arity:2 ~depth:2 in
  List.iter
    (fun (name, items) ->
      let c = F.Alternating.build_exn items in
      let g = Ic_core.Compose.dag (fst c) in
      pf "%-34s %3d tasks  %s@." name (Dag.n_nodes g)
        (verdict g (F.Alternating.schedule c)))
    [
      ("type 1: D0 ^ D1", F.Alternating.diamond_chain [ s1; s2 ]);
      ("type 2: T0(in) ^ D1", F.Alternating.in_prefixed s1 [ s2 ]);
      ("type 3: D1 ^ T0(out)", F.Alternating.out_suffixed [ s1 ] s2);
      ("Fig 4 right: unequal leaf counts", [ F.Alternating.Out s1; F.Alternating.In s2 ]);
      ( "longer chain D0 ^ D1 ^ D2",
        F.Alternating.diamond_chain [ s1; s1; s2 ] );
    ]

let e6 () =
  header "e6" "wavefront meshes (Fig. 5)";
  List.iter
    (fun l ->
      pf "out-mesh L=%d: %3d tasks, %s | in-mesh: %s@." l
        (Dag.n_nodes (F.Mesh.out_mesh l))
        (verdict (F.Mesh.out_mesh l) (F.Mesh.out_schedule l))
        (verdict (F.Mesh.in_mesh l) (F.Mesh.in_schedule l)))
    [ 2; 4; 6 ]

let e7 () =
  header "e7" "the mesh as a W-dag composition (Fig. 6)";
  pf "W_s |> W_t matrix (rows: s, cols: t; the paper: priority iff s <= t):@.   ";
  let range = [ 1; 2; 3; 4 ] in
  List.iter (fun t -> pf "%4d" t) range;
  pf "@.";
  List.iter
    (fun s ->
      pf "%2d " s;
      List.iter
        (fun t ->
          let p =
            Ic_core.Priority.has_priority
              (Ic_core.Priority.of_block (Ic_blocks.Repertoire.w s))
              (Ic_core.Priority.of_block (Ic_blocks.Repertoire.w t))
          in
          pf "%4s" (if p then "yes" else "-"))
        range;
      pf "@.")
    range;
  let c, sigmas = F.Mesh.w_decomposition 5 in
  pf "W_1 ^ ... ^ W_5 composite isomorphic to the L=5 out-mesh: %b@."
    (Ic_dag.Iso.isomorphic (Ic_core.Compose.dag c) (F.Mesh.out_mesh 5));
  pf "|>-linear: %b; Theorem 2.1 schedule: %s@."
    (Ic_core.Linear.is_linear c sigmas)
    (verdict (Ic_core.Compose.dag c) (Ic_core.Linear.schedule_exn c sigmas))

let e8 () =
  header "e8" "mesh coarsening: quadratic work vs linear communication (Fig. 7)";
  pf "%6s %8s %10s %10s %8s@." "block" "tasks" "max work" "max comm" "cut arcs";
  List.iter
    (fun r ->
      pf "%6d %8d %10.0f %10d %8d@." r.G.Coarsen_mesh.block r.G.Coarsen_mesh.n_coarse_tasks
        r.G.Coarsen_mesh.max_task_work r.G.Coarsen_mesh.max_task_communication
        r.G.Coarsen_mesh.total_cut_arcs)
    (G.Coarsen_mesh.scaling ~levels:23 ~blocks:[ 1; 2; 3; 4; 6; 8; 12 ]);
  let t = G.Coarsen_mesh.coarsen ~levels:11 ~block:3 in
  pf "coarse dag is again an out-mesh: %b@." (G.Coarsen_mesh.is_again_out_mesh t)

let e8b () =
  header "e8b"
    "the granularity crossover, simulated (section 4's argument, closed loop)";
  let rows = Ic_sim.Granularity_study.mesh_crossover () in
  pf "L=15 out-mesh (136 cells), 8 clients, wavefront schedules; makespans:@.";
  pf "%10s %10s %10s %10s   best@." "comm price" "fine b=1" "b=2" "b=4";
  List.iter
    (fun ct ->
      let find b =
        List.find
          (fun r -> r.Ic_sim.Granularity_study.comm_time = ct && r.block = b)
          rows
      in
      pf "%10.1f %10.2f %10.2f %10.2f   b=%d@." ct
        (find 1).Ic_sim.Granularity_study.makespan (find 2).makespan
        (find 4).makespan
        (Ic_sim.Granularity_study.best_block rows ct))
    [ 0.0; 0.5; 2.0; 8.0 ]

let e9 () =
  header "e9" "butterfly networks (Figs. 8-10)";
  List.iter
    (fun d ->
      let g = F.Butterfly_net.dag d and s = F.Butterfly_net.schedule d in
      pf "B_%d: %3d tasks, pairing schedule %s (pairs consecutive: %b)@." d
        (Dag.n_nodes g) (verdict g s)
        (F.Butterfly_net.pairs_consecutive d s))
    [ 1; 2; 3 ];
  (* negative control: row-major order splits level >= 1 pairs *)
  let d = 2 in
  let g = F.Butterfly_net.dag d in
  let order =
    List.concat
      (List.init d (fun l -> List.init 4 (fun r -> F.Butterfly_net.node ~d l r)))
  in
  let s = Schedule.of_nonsink_order_exn g order in
  pf "row-major control on B_2: pairs consecutive: %b, %s@."
    (F.Butterfly_net.pairs_consecutive d s)
    (verdict g s);
  let c, sigmas = F.Butterfly_net.block_decomposition 3 in
  pf "B_3 as %d composed B blocks: isomorphic %b, |>-linear %b@."
    (List.length sigmas)
    (Ic_dag.Iso.isomorphic (Ic_core.Compose.dag c) (F.Butterfly_net.dag 3))
    (Ic_core.Linear.is_linear c sigmas);
  let tb = G.Coarsen_butterfly.two_band ~a:1 ~b:1 in
  pf "granularity: B_2 two-band-coarsens to the block B itself: %b@."
    (Ic_dag.Iso.isomorphic tb.G.Cluster.coarse (Ic_blocks.Butterfly_block.dag ()))

let e10 () =
  header "e10" "sorting and convolution through butterflies (eqs. 5.1, 5.2)";
  let rng = Random.State.make [| 99 |] in
  List.iter
    (fun d ->
      let n = 1 lsl d in
      let keys = Array.init n (fun _ -> Random.State.int rng 10_000) in
      let expected = Array.copy keys in
      Array.sort compare expected;
      pf "bitonic sort, n=%3d (%d comparator stages): sorted correctly: %b@." n
        (Ic_compute.Sorting.n_substages d)
        (Ic_compute.Sorting.sort keys = expected))
    [ 2; 4; 6 ];
  let input =
    Array.init 64 (fun _ ->
        { Complex.re = Random.State.float rng 2.0 -. 1.0;
          im = Random.State.float rng 2.0 -. 1.0 })
  in
  let fft = Ic_compute.Fft.fft input and dft = Ic_compute.Fft.dft_naive input in
  let err =
    Array.fold_left max 0.0
      (Array.mapi (fun i z -> Complex.norm (Complex.sub z dft.(i))) fft)
  in
  pf "64-point FFT through B_6 vs naive DFT: max |error| = %.2e@." err;
  let a = Array.init 100 (fun i -> float_of_int (i mod 7)) in
  let b = Array.init 80 (fun i -> float_of_int (i mod 5)) in
  let fast = Ic_compute.Convolution.poly_mul_fft a b in
  let slow = Ic_compute.Convolution.naive a b in
  let cerr =
    Array.fold_left max 0.0 (Array.mapi (fun i x -> Float.abs (x -. slow.(i))) fast)
  in
  pf "degree-99 x degree-79 polynomial product: max coefficient error = %.2e@." cerr

let e11 () =
  header "e11" "parallel-prefix dags (Figs. 11-12)";
  pf "N_s |> N_t for all s,t in 1..5: %b@."
    (List.for_all
       (fun s ->
         List.for_all
           (fun t ->
             Ic_core.Priority.has_priority
               (Ic_core.Priority.of_block (Ic_blocks.Repertoire.n s))
               (Ic_core.Priority.of_block (Ic_blocks.Repertoire.n t)))
           [ 1; 2; 3; 4; 5 ])
       [ 1; 2; 3; 4; 5 ]);
  List.iter
    (fun n ->
      pf "P_%d: %3d tasks, %s@." n
        (Dag.n_nodes (F.Prefix_dag.dag n))
        (verdict (F.Prefix_dag.dag n) (F.Prefix_dag.schedule n)))
    [ 4; 6; 8 ];
  let d = F.Prefix_dag.n_decomposition 8 in
  let sizes =
    List.map
      (fun (g, _) -> List.length (Dag.sources g))
      (Ic_core.Compose.components d.F.Prefix_dag.compose)
  in
  pf "P_8 N-dag decomposition (Fig. 12): N_%s@."
    (String.concat " ^ N_" (List.map string_of_int sizes))

let e12 () =
  header "e12" "the DLT dag L_n (Fig. 13)";
  List.iter
    (fun n ->
      let t = F.Dlt_dag.l_dag n in
      pf "L_%d: %2d tasks, %s@." n (Dag.n_nodes (F.Dlt_dag.dag t))
        (verdict (F.Dlt_dag.dag t) (F.Dlt_dag.schedule t)))
    [ 4; 8 ];
  let c = G.Coarsen_dlt.coarsen_columns 8 in
  pf "coarsened L_8 (columns collapsed, Fig. 13 right): %d tasks, admits: %b@."
    (Dag.n_nodes c.G.Cluster.coarse)
    (Result.get_ok (Optimal.admits_ic_optimal c.G.Cluster.coarse));
  let x = Array.init 8 (fun i -> { Complex.re = float_of_int (i + 1); im = 0.0 }) in
  let omega = Complex.polar 1.0 (2.0 *. Float.pi /. 8.0) in
  let max_err = ref 0.0 in
  for k = 0 to 7 do
    let e =
      Complex.norm
        (Complex.sub
           (Ic_compute.Dlt.via_prefix ~x ~omega ~k)
           (Ic_compute.Dlt.naive ~x ~omega ~k))
    in
    if e > !max_err then max_err := e
  done;
  pf "8-point DLT through L_8 vs direct evaluation: max |error| = %.2e@." !max_err

let e13 () =
  header "e13" "the ternary-tree DLT dag L'_n (Figs. 14-15)";
  pf "chain V_3 |> V_3 |> Lambda |> Lambda: %b@."
    (Ic_core.Priority.is_linear_chain
       (List.map Ic_core.Priority.of_block
          Ic_blocks.Repertoire.[ vee 3; vee 3; lambda 2; lambda 2 ]));
  List.iter
    (fun n ->
      let t = F.Dlt_dag.l_prime_dag n in
      pf "L'_%d: %2d tasks, %s@." n (Dag.n_nodes (F.Dlt_dag.dag t))
        (verdict (F.Dlt_dag.dag t) (F.Dlt_dag.schedule t)))
    [ 4; 8; 16 ];
  let x = Array.init 8 (fun i -> { Complex.re = 1.0 /. float_of_int (i + 1); im = 0.1 }) in
  let omega = Complex.polar 1.0 (2.0 *. Float.pi /. 8.0) in
  let max_err = ref 0.0 in
  for k = 0 to 7 do
    let e =
      Complex.norm
        (Complex.sub
           (Ic_compute.Dlt.via_tree ~x ~omega ~k)
           (Ic_compute.Dlt.naive ~x ~omega ~k))
    in
    if e > !max_err then max_err := e
  done;
  pf "8-point DLT through L'_8 vs direct evaluation: max |error| = %.2e@." !max_err

let e14 () =
  header "e14" "computing the paths in a graph (Fig. 16)";
  let a =
    Ic_compute.Bool_matrix.of_edges 9
      [ (0, 1); (1, 2); (2, 3); (3, 0); (1, 4); (4, 5); (5, 6); (6, 7); (7, 8); (8, 0) ]
  in
  let m = Ic_compute.Paths.compute a ~k:8 in
  pf "9-node graph, path lengths 1..8 through the L_8-shaped dag (%d tasks)@."
    (Dag.n_nodes (F.Path_dag.dag 8));
  pf "matches repeated logical multiplication: %b@."
    (m = Ic_compute.Paths.reference a ~k:8);
  pf "spot checks: 0~>0 in 4 steps: %b | in 7 steps: %b | in 3 steps: %b@."
    m.(0).(0).(3) m.(0).(0).(6) m.(0).(0).(2)

let e15 () =
  header "e15" "matrix multiplication (Fig. 17 and the boxed schedule)";
  let g = F.Matmul_dag.dag () and s = F.Matmul_dag.schedule () in
  pf "M = C_4 ^ C_4 ^ L ^ L ^ L ^ L: %d tasks, Theorem 2.1 schedule %s@."
    (Dag.n_nodes g) (verdict g s);
  pf "product tasks become ELIGIBLE in the order: %s@."
    (String.concat ", " (F.Matmul_dag.product_eligibility_order ()));
  pf "paper's boxed order:                        AE, CE, CF, AF, BG, DG, DH, BH@.";
  let rng = Random.State.make [| 4 |] in
  let a = Ic_compute.Matmul.random rng 32 and b = Ic_compute.Matmul.random rng 32 in
  pf "32x32 recursive product through M agrees with naive: %b@."
    (Ic_compute.Matmul.approx_equal
       (Ic_compute.Matmul.multiply ~threshold:4 a b)
       (Ic_compute.Matmul.naive a b))

let e16 () =
  header "e16" "simulation assessment: IC-optimal vs heuristics ([15],[19]-style)";
  let hetero i = [| 1.0; 0.5; 2.0; 0.25; 1.5; 0.75 |].(i mod 6) in
  let cases =
    [
      ("out-mesh L=20, 6 clients", F.Mesh.out_mesh 20, F.Mesh.out_schedule 20, 6);
      ("butterfly B_6, 12 clients", F.Butterfly_net.dag 6, F.Butterfly_net.schedule 6, 12);
      ("prefix P_32, 8 clients", F.Prefix_dag.dag 32, F.Prefix_dag.schedule 32, 8);
      ( "diamond depth 7, 8 clients",
        F.Diamond.dag (F.Diamond.complete ~arity:2 ~depth:7),
        F.Diamond.schedule (F.Diamond.complete ~arity:2 ~depth:7),
        8 );
    ]
  in
  List.iter
    (fun (name, g, theory, n_clients) ->
      pf "@.--- %s (%d tasks; heterogeneous speeds, jitter 0.5) ---@." name
        (Dag.n_nodes g);
      let config = Ic_sim.Simulator.config ~n_clients ~speed:hetero ~jitter:0.5 () in
      Ic_sim.Assessment.pp_rows Format.std_formatter
        (Ic_sim.Assessment.compare_policies ~config g ~theory
           ~workload:(Ic_sim.Workload.random_uniform ~seed:5 ~lo:0.5 ~hi:2.0)))
    cases

let e16c () =
  header "e16c"
    "time-resolved eligibility curves (traced simulation, Ic_obs)";
  pf "eligible-task pool over simulated time, sampled at fractions of each@.";
  pf "policy's makespan — the temporal view behind the E16 aggregates:@.";
  List.iter
    (fun (name, g, theory, n_clients) ->
      pf "@.--- %s ---@." name;
      let config = Ic_sim.Simulator.config ~n_clients ~jitter:0.5 () in
      Ic_sim.Assessment.pp_curves Format.std_formatter
        (Ic_sim.Assessment.eligibility_curves ~config g ~theory))
    [
      ("out-mesh L=20, 6 clients", F.Mesh.out_mesh 20, F.Mesh.out_schedule 20, 6);
      ( "butterfly B_5, 12 clients",
        F.Butterfly_net.dag 5,
        F.Butterfly_net.schedule 5,
        12 );
    ]

let e16b () =
  header "e16b" "batch-request service (scenario 2 of section 2.2)";
  pf "fraction of a size-r request burst served immediately, per step:@.";
  pf "%-22s %8s %8s %8s %8s@." "dag / schedule" "r=1" "r=2" "r=4" "r=8";
  let bursts = [ 1; 2; 4; 8 ] in
  let renorm g s =
    Schedule.of_nonsink_order_exn g (Schedule.nonsink_prefix g s)
  in
  let line name g s =
    let rates = Ic_sim.Burst.sweep ~bursts g s in
    pf "%-22s" name;
    List.iter (fun (_, rate) -> pf " %7.1f%%" (100.0 *. rate)) rates;
    pf "@."
  in
  let cases =
    [
      ("mesh L=14", F.Mesh.out_mesh 14, F.Mesh.out_schedule 14);
      ("butterfly B_5", F.Butterfly_net.dag 5, F.Butterfly_net.schedule 5);
      ("prefix P_16", F.Prefix_dag.dag 16, F.Prefix_dag.schedule 16);
    ]
  in
  List.iter
    (fun (name, g, theory) ->
      line (name ^ " / optimal") g theory;
      let lifo = renorm g (Ic_heuristics.Policy.(run lifo) g) in
      line (name ^ " / lifo") g lifo;
      let fifo = renorm g (Ic_heuristics.Policy.(run fifo) g) in
      line (name ^ " / fifo") g fifo)
    cases

let e17 () =
  header "e17"
    "robustness study: IC-optimal vs heuristics under fault regimes";
  pf "every policy under every fault regime (crashes, flaky transport,@.";
  pf "stragglers), with the recovery policy suited to each regime; same@.";
  pf "seed everywhere, so identical runs are byte-reproducible:@.";
  List.iter
    (fun (name, g, theory, n_clients) ->
      pf "@.--- %s (%d tasks) ---@." name (Dag.n_nodes g);
      let config = Ic_sim.Simulator.config ~n_clients ~jitter:0.5 () in
      Ic_sim.Assessment.pp_robustness Format.std_formatter
        (Ic_sim.Assessment.robustness_study ~config g ~theory
           ~workload:(Ic_sim.Workload.random_uniform ~seed:5 ~lo:0.5 ~hi:2.0)))
    [
      ("out-mesh L=12, 6 clients", F.Mesh.out_mesh 12, F.Mesh.out_schedule 12, 6);
      ( "butterfly B_4, 8 clients",
        F.Butterfly_net.dag 4,
        F.Butterfly_net.schedule 4,
        8 );
    ]

let e18 () =
  header "e18"
    "batched scheduling ([20]; a total almost-optimality notion, section 8 dir. 2)";
  let module B = Ic_batch.Batched in
  (* a dag with no IC-optimal schedule still has a lex-optimal one *)
  let g =
    Dag.make_exn ~n:7 ~arcs:[ (0, 2); (0, 4); (1, 2); (1, 4); (2, 6); (3, 5) ] ()
  in
  pf "7-node dag admitting no IC-optimal schedule (found by search):@.";
  pf "  pointwise ceiling E_opt:      %s@."
    (profile_string (Result.get_ok (Optimal.e_opt g)));
  (match B.optimal g ~batch_size:1 with
  | Ok t -> pf "  lex-optimal p=1 profile:      %s@." (profile_string (B.profile g t))
  | Error _ -> ());
  (* on admitting dags the p=1 lex optimum recovers the pointwise optimum *)
  let mesh = F.Mesh.out_mesh 4 in
  (match (B.e_opt mesh ~batch_size:1, Optimal.e_opt mesh) with
  | Ok lex, Ok opt ->
    pf "mesh L=4: p=1 lex profile equals the pointwise optimum: %b@." (lex = opt)
  | _ -> ());
  (* greedy vs exact across batch sizes *)
  pf "@.greedy vs exact batched profiles (diamond depth 3, %d tasks):@."
    (Dag.n_nodes (F.Diamond.dag (F.Diamond.complete ~arity:2 ~depth:3)));
  let dg = F.Diamond.dag (F.Diamond.complete ~arity:2 ~depth:3) in
  List.iter
    (fun p ->
      let greedy = B.profile dg (B.greedy dg ~batch_size:p) in
      match B.optimal dg ~batch_size:p with
      | Ok t ->
        let exact = B.profile dg t in
        pf "  p=%d greedy %s@.      exact  %s  (equal: %b)@." p
          (profile_string greedy) (profile_string exact) (greedy = exact)
      | Error (`Too_large _) -> pf "  p=%d exact DP too large@." p)
    [ 1; 2; 4 ]

let a1 () =
  header "a1" "ablation: exact-verifier scaling (ideal enumeration)";
  pf "%-26s %8s %10s@." "dag" "nodes" "ideals";
  List.iter
    (fun (name, g) ->
      match Optimal.analyze g with
      | Ok a -> pf "%-26s %8d %10d@." name (Dag.n_nodes g) a.Optimal.n_ideals
      | Error (`Too_large k) -> pf "%-26s %8d %10s@." name (Dag.n_nodes g)
                                  (Printf.sprintf ">%d" k))
    [
      ("mesh L=4", F.Mesh.out_mesh 4);
      ("mesh L=6", F.Mesh.out_mesh 6);
      ("mesh L=8", F.Mesh.out_mesh 8);
      ("butterfly B_2", F.Butterfly_net.dag 2);
      ("butterfly B_3", F.Butterfly_net.dag 3);
      ("prefix P_8", F.Prefix_dag.dag 8);
      ("diamond depth 4", F.Diamond.dag (F.Diamond.complete ~arity:2 ~depth:4));
      ("antichain n=20", Dag.empty 20);
    ];
  pf "@.ablation: does Theorem 2.1 need the priority condition? The phase@.";
  pf "schedule of the NON-|>-linear composition Lambda ^ V is still valid but@.";
  pf "suboptimal orderings exist for other dags; the in-tree pair-splitting@.";
  pf "and butterfly row-major controls in E9/test suites show optimality is@.";
  pf "genuinely lost when the component order or pairing is violated.@."

let a2 () =
  header "a2" "the automatic scheduler: rediscovering the paper's decompositions";
  let show name g =
    match Ic_core.Auto.schedule g with
    | Error msg -> pf "%-22s FAILED: %s@." name msg
    | Ok p ->
      let block_names = List.map (fun b -> b.Ic_core.Auto.name) p.Ic_core.Auto.blocks in
      let summary =
        (* compress runs: "K(2,2) x12" *)
        let rec compress = function
          | [] -> []
          | x :: rest ->
            let same, rest' = List.partition (( = ) x) rest in
            (x, 1 + List.length same) :: compress rest'
        in
        compress block_names
        |> List.map (fun (n, k) -> if k = 1 then n else Printf.sprintf "%s x%d" n k)
        |> String.concat ", "
      in
      pf "%-22s %-11s %s  [%s]@." name
        (match p.Ic_core.Auto.certificate with
        | `Linear -> "|>-linear"
        | `Unverified -> "unverified")
        (verdict g p.Ic_core.Auto.schedule)
        summary
  in
  show "mesh L=5" (F.Mesh.out_mesh 5);
  show "butterfly B_3" (F.Butterfly_net.dag 3);
  show "prefix P_8" (F.Prefix_dag.dag 8);
  show "matmul M" (F.Matmul_dag.dag ());
  show "diamond depth 3" (F.Diamond.dag (F.Diamond.complete ~arity:2 ~depth:3));
  show "DLT L_8" (F.Dlt_dag.dag (F.Dlt_dag.l_dag 8));
  show "sorting net n=4" (Ic_compute.Sorting.network_dag 2);
  show "in-tree depth 3" (F.In_tree.dag ~arity:2 ~depth:3)

let e19 () =
  header "e19"
    "parallel execution: IC-priority ordering vs plain work stealing (Ic_par)";
  pf "real payloads on domains with work-stealing deques; each row runs the@.";
  pf "same dataflow under plain stealing and under the IC-optimal priority@.";
  pf "pool, with the sequential engine as the speedup baseline:@.";
  let domain_counts = [ 1; 2; 4; 8 ] in
  let cases =
    (* family, size, spin_us: ~1 us, ~100 us and ~10 ms granularities *)
    [
      ("wavefront", 40, 1.0);
      ("wavefront", 40, 100.0);
      ("wavefront", 12, 10_000.0);
      ("matmul", 6, 0.0);
      ("quadrature", 10, 100.0);
      ("fft", 8, 100.0);
    ]
  in
  pf "@.%-18s %6s %4s %6s  %9s %8s %8s %6s@." "payload" "spin" "dom" "order"
    "wall s" "speedup" "steals" "ok";
  List.iter
    (fun (family, size, spin_us) ->
      List.iter
        (fun domains ->
          List.iter
            (fun (name, order) ->
              match
                Par_support.run ~family ~size ~spin_us ~domains ~order
                  ~check:true ()
              with
              | Error e -> pf "%s: %s@." family e
              | Ok o ->
                let s = o.Par_support.stats in
                pf "%-18s %6.0f %4d %6s  %9.4f %7.2fx %8d %6b@." o.payload
                  spin_us s.domains name s.wall_s (o.seq_wall_s /. s.wall_s)
                  s.steals o.ok)
            Par_support.orders)
        domain_counts)
    cases

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4_e5); ("e5", e4_e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e8b", e8b); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e16b", e16b); ("e16c", e16c); ("e17", e17); ("e18", e18); ("e19", e19);
    ("a1", a1); ("a2", a2);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as ids) -> List.map String.lowercase_ascii ids
    | _ -> [ "e1"; "e2"; "e3"; "e4"; "e6"; "e7"; "e8"; "e9"; "e10"; "e11";
             "e8b"; "e12"; "e13"; "e14"; "e15"; "e16"; "e16b"; "e16c"; "e17";
             "e18"; "e19"; "a1"; "a2" ]
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some run -> run ()
      | None ->
        Format.eprintf "unknown experiment %S (known: e1..e18, a1, a2)@." id;
        exit 1)
    requested
