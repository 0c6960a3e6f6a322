(* Bechamel timing benches: one Test.make per table/figure of the paper
   (the per-experiment index of DESIGN.md), all in one executable.

   dune exec bench/main.exe --
     [--group default|large|fault|prof|par|served|gate|all] [--quick] [--repeat K]
     [--json-out FILE] [--compare BASELINE.json] [--threshold METRIC=TAU]
     [--profile] [--profile-out FILE] [--flame-out FILE]

   The [large] group leaves Bechamel behind: million-node dags are built
   and profiled once (or a handful of times) under a plain wall-clock /
   Gc.allocated_bytes / VmHWM harness, and every bench emits a one-line
   JSON record to stdout; --json-out collects the run's records into a
   single valid JSON array. [gate] is the CI perf-gate selection
   (large + fault + prof); --repeat runs it K times so --compare can fold
   min-of-k, and --compare exits non-zero when a gated metric regresses
   past its relative threshold against the committed baseline. *)

open Bechamel
open Toolkit
module F = Ic_families
module G = Ic_granularity
module Baseline = Ic_prof.Baseline

let stage = Staged.stage

(* ---------------------------------------------------------------- CLI -- *)

type group = Default | Large | Fault | Prof | Par | Served | Gate | All

let group = ref Default
let quick = ref false
let repeat = ref 1
let json_out : string option ref = ref None
let trace_out : string option ref = ref None
let compare_with : string option ref = ref None
let thresholds = ref Baseline.default_thresholds
let profile = ref false
let profile_out : string option ref = ref None
let flame_out : string option ref = ref None

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      go rest
    | "--repeat" :: k :: rest ->
      (match int_of_string_opt k with
      | Some k when k >= 1 -> repeat := k
      | _ ->
        prerr_endline ("bad --repeat " ^ k);
        exit 2);
      go rest
    | "--json-out" :: file :: rest ->
      json_out := Some file;
      go rest
    | "--trace-out" :: file :: rest ->
      trace_out := Some file;
      go rest
    | "--compare" :: file :: rest ->
      compare_with := Some file;
      go rest
    | "--threshold" :: spec :: rest ->
      (match String.index_opt spec '=' with
      | Some i ->
        let metric = String.sub spec 0 i in
        let tau =
          String.sub spec (i + 1) (String.length spec - i - 1)
          |> float_of_string_opt
        in
        (match tau with
        | Some tau when Float.is_finite tau && tau >= 0.0 ->
          thresholds :=
            (metric, tau) :: List.remove_assoc metric !thresholds
        | _ ->
          prerr_endline ("bad --threshold " ^ spec);
          exit 2)
      | None ->
        prerr_endline ("bad --threshold " ^ spec ^ " (want METRIC=TAU)");
        exit 2);
      go rest
    | "--profile" :: rest ->
      profile := true;
      go rest
    | "--profile-out" :: file :: rest ->
      profile := true;
      profile_out := Some file;
      go rest
    | "--flame-out" :: file :: rest ->
      profile := true;
      flame_out := Some file;
      go rest
    | "--group" :: g :: rest ->
      (group :=
         match g with
         | "default" -> Default
         | "large" -> Large
         | "fault" -> Fault
         | "prof" -> Prof
         | "par" -> Par
         | "served" -> Served
         | "gate" -> Gate
         | "all" -> All
         | _ ->
           prerr_endline
             ("unknown group " ^ g
              ^ " (default|large|fault|prof|par|served|gate|all)");
           exit 2);
      go rest
    | arg :: _ ->
      prerr_endline ("unknown argument " ^ arg);
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv))

(* every record is printed as it lands and collected so --json-out can
   write one valid JSON array at the end (one object per line was not
   parseable as a .json document) *)
let records : string list ref = ref []

let emit_json line =
  print_endline line;
  records := line :: !records

let records_document () =
  "[\n  " ^ String.concat ",\n  " (List.rev !records) ^ "\n]\n"

(* write-to-temp + rename so a crash (or a reader racing the writer)
   never observes a truncated document at the final path *)
let write_json_array file =
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (records_document ());
  close_out oc;
  Sys.rename tmp file

(* E1 / Fig 1: building and scheduling the whole block repertoire *)
let fig1_blocks =
  Test.make ~name:"fig1_blocks"
    (stage (fun () ->
         List.concat_map
           (fun s ->
             Ic_blocks.Repertoire.
               [ vee s; lambda s; w s; m s; n s; cycle (s + 1) ])
           [ 1; 2; 4; 8; 16 ]))

(* E2 / Fig 2: a 510-task diamond with its Theorem 2.1 schedule *)
let fig2_diamond =
  Test.make ~name:"fig2_diamond"
    (stage (fun () ->
         let d = F.Diamond.complete ~arity:2 ~depth:8 in
         F.Diamond.schedule d))

(* E3 / Fig 3: coarsening that diamond *)
let fig3_coarsen_diamond =
  let d = F.Diamond.complete ~arity:2 ~depth:8 in
  Test.make ~name:"fig3_coarsen_diamond"
    (stage (fun () -> G.Coarsen_diamond.uniform d ~depth:4))

(* E4+E5 / Fig 4, Table 1: the three alternating composition types *)
let table1_compositions =
  let s1 = F.Out_tree.complete ~arity:2 ~depth:3 in
  let s2 = F.Out_tree.complete ~arity:2 ~depth:4 in
  Test.make ~name:"table1_compositions"
    (stage (fun () ->
         List.map
           (fun items -> F.Alternating.schedule (F.Alternating.build_exn items))
           [
             F.Alternating.diamond_chain [ s1; s2 ];
             F.Alternating.in_prefixed s1 [ s2 ];
             F.Alternating.out_suffixed [ s1 ] s2;
           ]))

(* E6 / Fig 5: wavefront mesh construction + schedule + profile *)
let fig5_mesh =
  Test.make ~name:"fig5_mesh"
    (stage (fun () ->
         let g = F.Mesh.out_mesh 40 in
         Ic_dag.Profile.run g (F.Mesh.out_schedule 40)))

(* E7 / Fig 6: the W-dag composition and its Theorem 2.1 schedule *)
let fig6_wdag_composition =
  Test.make ~name:"fig6_wdag_composition"
    (stage (fun () ->
         let c, sigmas = F.Mesh.w_decomposition 20 in
         Ic_core.Linear.schedule_exn c sigmas))

(* E8 / Fig 7: the coarsening sweep *)
let fig7_coarsen_mesh =
  Test.make ~name:"fig7_coarsen_mesh"
    (stage (fun () -> G.Coarsen_mesh.scaling ~levels:47 ~blocks:[ 1; 2; 4; 8 ]))

(* E9 / Figs 8-10: B_8 (2304 tasks) with its pairing schedule *)
let fig8_10_butterfly =
  Test.make ~name:"fig8_10_butterfly"
    (stage (fun () ->
         let g = F.Butterfly_net.dag 8 in
         Ic_dag.Profile.run g (F.Butterfly_net.schedule 8)))

(* E10 / eq 5.1: bitonic sorting 256 keys through the comparator dag *)
let eq51_sort =
  let rng = Random.State.make [| 1 |] in
  let keys = Array.init 256 (fun _ -> Random.State.int rng 100_000) in
  Test.make ~name:"eq51_sort" (stage (fun () -> Ic_compute.Sorting.sort keys))

(* E10 / eq 5.2: polynomial product via three butterfly executions *)
let eq52_fft_convolution =
  let rng = Random.State.make [| 2 |] in
  let coeffs n = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  let a = coeffs 256 and b = coeffs 256 in
  Test.make ~name:"eq52_fft_convolution"
    (stage (fun () -> Ic_compute.Convolution.poly_mul_fft a b))

(* E11 / Figs 11-12: P_256 with its N-dag schedule *)
let fig11_12_prefix =
  Test.make ~name:"fig11_12_prefix"
    (stage (fun () ->
         let g = F.Prefix_dag.dag 256 in
         Ic_dag.Profile.run g (F.Prefix_dag.schedule 256)))

(* E12 / Fig 13: the L_32 dag and an 8-point DLT through L_8 *)
let fig13_dlt =
  let x = Array.init 8 (fun i -> { Complex.re = float_of_int i; im = 0.0 }) in
  let omega = Complex.polar 1.0 (2.0 *. Float.pi /. 8.0) in
  Test.make ~name:"fig13_dlt"
    (stage (fun () ->
         let t = F.Dlt_dag.l_dag 32 in
         ignore (F.Dlt_dag.schedule t);
         Ic_compute.Dlt.via_prefix ~x ~omega ~k:3))

(* E13 / Figs 14-15: L'_64 and the ternary-tree DLT *)
let fig14_15_dlt_tree =
  let x = Array.init 8 (fun i -> { Complex.re = float_of_int i; im = 0.0 }) in
  let omega = Complex.polar 1.0 (2.0 *. Float.pi /. 8.0) in
  Test.make ~name:"fig14_15_dlt_tree"
    (stage (fun () ->
         let t = F.Dlt_dag.l_prime_dag 64 in
         ignore (F.Dlt_dag.schedule t);
         Ic_compute.Dlt.via_tree ~x ~omega ~k:3))

(* E14 / Fig 16: path-length vectors of a 16-node graph, 8 powers *)
let fig16_paths =
  let rng = Random.State.make [| 3 |] in
  let a = Ic_compute.Bool_matrix.random rng 16 ~density:0.2 in
  Test.make ~name:"fig16_paths"
    (stage (fun () -> Ic_compute.Paths.compute a ~k:8))

(* E15 / Fig 17: 32x32 matrices through recursive M executions *)
let fig17_matmul =
  let rng = Random.State.make [| 4 |] in
  let a = Ic_compute.Matmul.random rng 32 and b = Ic_compute.Matmul.random rng 32 in
  Test.make ~name:"fig17_matmul"
    (stage (fun () -> Ic_compute.Matmul.multiply ~threshold:8 a b))

(* E16: one simulator run, IC-optimal policy on the L=20 mesh, 6 clients *)
let sim_assessment =
  let g = F.Mesh.out_mesh 20 in
  let theory = F.Mesh.out_schedule 20 in
  let config = Ic_sim.Simulator.config ~n_clients:6 ~jitter:0.5 () in
  Test.make ~name:"sim_assessment"
    (stage (fun () ->
         Ic_sim.Simulator.run config
           (Ic_heuristics.Policy.of_schedule "ic-optimal" theory)
           ~workload:Ic_sim.Workload.unit g))

(* supporting machinery worth tracking: the exact verifier and the priority
   relation over the repertoire *)
(* A2: the automatic scheduler decomposing and scheduling the matmul dag *)
let auto_scheduler =
  let g = F.Matmul_dag.dag () in
  Test.make ~name:"auto_scheduler" (stage (fun () -> Ic_core.Auto.schedule g))

let verifier_brute_force =
  let g = F.Butterfly_net.dag 2 in
  let s = F.Butterfly_net.schedule 2 in
  Test.make ~name:"verifier_brute_force"
    (stage (fun () -> Ic_dag.Optimal.is_ic_optimal g s))

let priority_matrix =
  let eps = List.map Ic_core.Priority.of_block Ic_blocks.Repertoire.all in
  Test.make ~name:"priority_matrix"
    (stage (fun () ->
         List.iter
           (fun a -> List.iter (fun b -> ignore (Ic_core.Priority.has_priority a b)) eps)
           eps))

(* E16b: burst-service sweep from a profile *)
let burst_service =
  let g = F.Mesh.out_mesh 20 in
  let s = F.Mesh.out_schedule 20 in
  Test.make ~name:"burst_service"
    (stage (fun () -> Ic_sim.Burst.sweep ~bursts:[ 1; 2; 4; 8 ] g s))

(* E17: batched scheduling, greedy and exact *)
let batched_greedy =
  let g = F.Mesh.out_mesh 12 in
  Test.make ~name:"batched_greedy"
    (stage (fun () -> Ic_batch.Batched.greedy g ~batch_size:4))

let batched_exact =
  let g = F.Mesh.out_mesh 4 in
  Test.make ~name:"batched_exact_dp"
    (stage (fun () -> Ic_batch.Batched.optimal g ~batch_size:2))

(* The Frontier engine on the paper's two biggest workloads: full-schedule
   replay through the mutable engine, and the one-pass bulk profile behind
   Profile.run. Dags and schedules are built once outside the timed body. *)
let frontier_mesh = F.Mesh.out_mesh 256
let frontier_mesh_schedule = F.Mesh.out_schedule 256
let frontier_butterfly = F.Butterfly_net.dag 10
let frontier_butterfly_schedule = F.Butterfly_net.schedule 10

let frontier_replay name g s =
  let order = Ic_dag.Schedule.order s in
  Test.make ~name
    (stage (fun () ->
         let fr = Ic_dag.Frontier.create g in
         Array.iter (Ic_dag.Frontier.execute fr) order))

let frontier_replay_mesh256 =
  frontier_replay "frontier_replay_mesh256" frontier_mesh
    frontier_mesh_schedule

let frontier_replay_butterfly10 =
  frontier_replay "frontier_replay_butterfly10" frontier_butterfly
    frontier_butterfly_schedule

let frontier_profile_mesh256 =
  Test.make ~name:"frontier_profile_mesh256"
    (stage (fun () -> Ic_dag.Profile.run frontier_mesh frontier_mesh_schedule))

let frontier_profile_butterfly10 =
  Test.make ~name:"frontier_profile_butterfly10"
    (stage (fun () ->
         Ic_dag.Profile.run frontier_butterfly frontier_butterfly_schedule))

let tests =
  Test.make_grouped ~name:"ic-scheduling"
    [
      fig1_blocks; fig2_diamond; fig3_coarsen_diamond; table1_compositions;
      fig5_mesh; fig6_wdag_composition; fig7_coarsen_mesh; fig8_10_butterfly;
      eq51_sort; eq52_fft_convolution; fig11_12_prefix; fig13_dlt;
      fig14_15_dlt_tree; fig16_paths; fig17_matmul; sim_assessment;
      burst_service; batched_greedy; batched_exact; auto_scheduler;
      verifier_brute_force; priority_matrix; frontier_replay_mesh256;
      frontier_replay_butterfly10; frontier_profile_mesh256;
      frontier_profile_butterfly10;
    ]

(* ------------------------------------------------- the [large] group -- *)

(* Construction and replay far beyond the paper's figure sizes: out-mesh
   1024 (~525k tasks), butterfly 2^16 inputs (~1.1M tasks), parallel-prefix
   2^18 (~5M tasks). Bechamel's per-run isolation is pointless at these
   sizes; a plain harness times a few runs, meters allocation through
   [Gc.allocated_bytes] and peak memory through VmHWM. *)

let max_rss_kb () =
  (* VmHWM from /proc/self/status: Linux-only, absent elsewhere *)
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          String.sub line 6 (String.length line - 6)
          |> String.trim
          |> String.split_on_char ' '
          |> List.hd
          |> int_of_string
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* time [f] for at least [min_runs] runs and ~0.2 s of elapsed time,
   returning mean seconds per run and mean bytes allocated per run *)
let time_it ?(min_runs = 1) f =
  let runs = ref 0 and total = ref 0.0 in
  let a0 = Gc.allocated_bytes () in
  while !runs < min_runs || (!total < 0.2 && !runs < 1_000) do
    let t0 = Ic_prof.Monotonic.now () in
    ignore (Sys.opaque_identity (f ()));
    total := !total +. (Ic_prof.Monotonic.now () -. t0);
    incr runs
  done;
  let a1 = Gc.allocated_bytes () in
  ( !total /. float_of_int !runs,
    (a1 -. a0 -. (56.0 *. float_of_int !runs)) /. float_of_int !runs )

(* names and phases are emitted through Ic_obs.Json.quote, so a hostile
   bench name (quotes, control characters) cannot produce invalid JSON *)
let current_phase = ref "large"

let large_record ~name ~n_nodes ~n_arcs ~seconds ~alloc_bytes =
  emit_json
    (Printf.sprintf
       "{\"phase\": %s, \"bench\": %s, \"n_nodes\": %d, \"n_arcs\": %d, \
        \"time_ms\": %.3f, \"allocated_mb\": %.3f, \"max_rss_kb\": %d}"
       (Ic_obs.Json.quote !current_phase)
       (Ic_obs.Json.quote name) n_nodes n_arcs (1e3 *. seconds)
       (alloc_bytes /. 1048576.0)
       (max_rss_kb ()))

let large_build name build =
  let seconds, alloc = time_it build in
  let g = build () in
  large_record ~name ~n_nodes:(Ic_dag.Dag.n_nodes g)
    ~n_arcs:(Ic_dag.Dag.n_arcs g) ~seconds ~alloc_bytes:alloc;
  seconds

let large_profile name g s ~min_runs =
  let seconds, alloc = time_it ~min_runs (fun () -> Ic_dag.Profile.run g s) in
  large_record ~name ~n_nodes:(Ic_dag.Dag.n_nodes g)
    ~n_arcs:(Ic_dag.Dag.n_arcs g) ~seconds ~alloc_bytes:alloc

let run_large () =
  current_phase := "large";
  let mesh_levels = if !quick then 256 else 1024 in
  let butterfly_dim = if !quick then 10 else 16 in
  let prefix_inputs = if !quick then 1 lsl 12 else 1 lsl 18 in
  let direct_s =
    large_build
      (Printf.sprintf "build_out_mesh_%d" mesh_levels)
      (fun () -> F.Mesh.out_mesh mesh_levels)
  in
  ignore
    (large_build
       (Printf.sprintf "build_butterfly_%d" butterfly_dim)
       (fun () -> F.Butterfly_net.dag butterfly_dim));
  ignore
    (large_build
       (Printf.sprintf "build_prefix_%d" prefix_inputs)
       (fun () -> F.Prefix_dag.dag prefix_inputs));
  (* the Builder's buffered path: the same mesh arcs, held in memory and
     fed in reverse order, so every arc after the first goes through the
     8-byte-per-arc buffer, the count and scatter passes and the row
     sort; its time over the direct fill's comes from this one run *)
  let n = (mesh_levels + 1) * (mesh_levels + 2) / 2
  and m = mesh_levels * (mesh_levels + 1) in
  let us = Array.make m 0 and vs = Array.make m 0 in
  let k = ref 0 in
  F.Mesh.iter_arcs mesh_levels (fun u v ->
      us.(!k) <- u;
      vs.(!k) <- v;
      incr k);
  let reversed_s =
    large_build
      (Printf.sprintf "build_out_mesh_%d_reversed" mesh_levels)
      (fun () ->
        let b = Ic_dag.Dag.Builder.create ~n ~hint:m () in
        for i = m - 1 downto 0 do
          Ic_dag.Dag.Builder.add_arc b us.(i) vs.(i)
        done;
        Ic_dag.Dag.Builder.build_exn b)
  in
  emit_json
    (Printf.sprintf
       "{\"phase\": %s, \"bench\": %s, \"ratio\": %.3f}"
       (Ic_obs.Json.quote !current_phase)
       (Ic_obs.Json.quote
          (Printf.sprintf "build_out_mesh_%d_reversed_over_direct" mesh_levels))
       (reversed_s /. direct_s));
  (* schedule replay at the large mesh size, one pass over ~1M arcs *)
  let g = F.Mesh.out_mesh mesh_levels in
  let s = F.Mesh.out_schedule mesh_levels in
  large_profile
    (Printf.sprintf "profile_out_mesh_%d" mesh_levels)
    g s ~min_runs:(if !quick then 1 else 3);
  (* the acceptance workload: allocation on mesh-256 profile replay *)
  let g256 = F.Mesh.out_mesh 256 in
  let s256 = F.Mesh.out_schedule 256 in
  large_profile "profile_out_mesh_256_alloc" g256 s256 ~min_runs:20;
  (* snapshots: write the large mesh out, map it back in O(1), and replay
     the profile straight off the mapping *)
  let snap = Filename.temp_file "ic_bench_mesh" ".icdag" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ())
    (fun () ->
      let save () =
        match Ic_dag.Dag.save g snap with
        | Ok () -> ()
        | Error e -> failwith ("snapshot save: " ^ e)
      in
      let load () =
        match Ic_dag.Dag.load snap with
        | Ok h -> h
        | Error e -> failwith ("snapshot load: " ^ e)
      in
      let seconds, alloc = time_it save in
      large_record
        ~name:(Printf.sprintf "snapshot_save_mesh_%d" mesh_levels)
        ~n_nodes:(Ic_dag.Dag.n_nodes g) ~n_arcs:(Ic_dag.Dag.n_arcs g) ~seconds
        ~alloc_bytes:alloc;
      let seconds, alloc = time_it (fun () -> load ()) in
      large_record
        ~name:(Printf.sprintf "snapshot_load_mesh_%d" mesh_levels)
        ~n_nodes:(Ic_dag.Dag.n_nodes g) ~n_arcs:(Ic_dag.Dag.n_arcs g) ~seconds
        ~alloc_bytes:alloc;
      let h = load () in
      large_profile
        (Printf.sprintf "profile_out_mesh_%d_snapshot" mesh_levels)
        h s
        ~min_runs:(if !quick then 1 else 3));
  (* the load loop above leaves ~1k dead mmap views behind; unmap them now
     so --repeat passes and later groups measure against a clean footprint *)
  Gc.compact ()

(* ------------------------------------------------- the [fault] group -- *)

(* E17 support: what do the fault-injection hooks cost when no fault ever
   fires? Three runs of the E16 workload (mesh-20, ic-optimal, 6 clients):
   the fault-free fast path, a plan whose probabilities are negligible but
   nonzero (every attempt samples the injector and schedules timeout and
   speculation events that fire as guarded no-ops), and a genuinely
   crashy/straggly run for scale. *)
let run_fault () =
  current_phase := "fault";
  let g = F.Mesh.out_mesh 20 in
  let theory = F.Mesh.out_schedule 20 in
  let policy = Ic_heuristics.Policy.of_schedule "ic-optimal" theory in
  let bench name config =
    let seconds, alloc =
      time_it ~min_runs:50 (fun () ->
          Ic_sim.Simulator.run config policy ~workload:Ic_sim.Workload.unit g)
    in
    large_record ~name ~n_nodes:(Ic_dag.Dag.n_nodes g)
      ~n_arcs:(Ic_dag.Dag.n_arcs g) ~seconds ~alloc_bytes:alloc
  in
  bench "sim_fault_hooks_off"
    (Ic_sim.Simulator.config ~n_clients:6 ~jitter:0.5 ());
  bench "sim_fault_hooks_idle"
    (Ic_sim.Simulator.config ~n_clients:6 ~jitter:0.5
       ~faults:
         (Ic_fault.Plan.make ~straggler_probability:1e-12
            ~loss_probability:1e-12 ~fail_probability:1e-12 ())
       ~recovery:
         (Ic_fault.Recovery.make ~timeout_factor:1e6 ~speculation_factor:1e6
            ())
       ());
  bench "sim_fault_crashy"
    (Ic_sim.Simulator.config ~n_clients:6 ~jitter:0.5
       ~faults:
         (Ic_fault.Plan.make ~crash_rate:0.01 ~straggler_probability:0.2
            ~straggler_factor:6.0 ())
       ~recovery:
         (Ic_fault.Recovery.make ~timeout_factor:4.0 ~detection_latency:0.25
            ~backoff_base:0.1 ~backoff_jitter:0.5 ~speculation_factor:2.0 ())
       ())

(* -------------------------------------------------- the [prof] group -- *)

(* The acceptance measurement for the self-profiler's disabled path:
   [Frontier.profile] (instrumented, profiling off) against
   [Frontier.profile_raw] (the identical loop with no instrumentation) on
   the mesh-256 replay, plus the full create/execute replay, whose only
   span is the one around [Frontier.create]. Each number is the
   best of 3 batches of >= 20 runs, so scheduler noise has three chances
   to get out of the way; the derived overhead_pct record is what DESIGN.md
   quotes and what the perf JSON tracks over time. *)
let run_prof () =
  current_phase := "prof";
  let g = F.Mesh.out_mesh 256 in
  let s = F.Mesh.out_schedule 256 in
  let order = Ic_dag.Schedule.order s in
  let best f =
    let rec go k t a =
      if k = 0 then (t, a)
      else
        let t', a' = time_it ~min_runs:20 f in
        go (k - 1) (Float.min t t') (Float.min a a')
    in
    go 3 infinity infinity
  in
  let record name (seconds, alloc) =
    large_record ~name ~n_nodes:(Ic_dag.Dag.n_nodes g)
      ~n_arcs:(Ic_dag.Dag.n_arcs g) ~seconds ~alloc_bytes:alloc
  in
  let was_on = Ic_prof.Span.enabled () in
  Ic_prof.Span.disable ();
  let raw_t, raw_a = best (fun () -> Ic_dag.Frontier.profile_raw g ~order) in
  let off_t, off_a = best (fun () -> Ic_dag.Frontier.profile g ~order) in
  let replay () =
    let fr = Ic_dag.Frontier.create g in
    Array.iter (Ic_dag.Frontier.execute fr) order
  in
  let replay_off = best replay in
  Ic_prof.Span.enable ();
  let on = best (fun () -> Ic_dag.Frontier.profile g ~order) in
  let replay_on = best replay in
  if not was_on then Ic_prof.Span.disable ();
  record "prof_profile_raw_mesh256" (raw_t, raw_a);
  record "prof_profile_off_mesh256" (off_t, off_a);
  record "prof_profile_on_mesh256" on;
  record "prof_replay_off_mesh256" replay_off;
  record "prof_replay_on_mesh256" replay_on;
  let pct later earlier =
    if earlier > 0.0 then 100.0 *. (later -. earlier) /. earlier else 0.0
  in
  emit_json
    (Printf.sprintf
       "{\"phase\": \"prof\", \"bench\": \"prof_disabled_overhead\", \
        \"overhead_pct\": %.2f, \"alloc_delta_mb\": %.4f}"
       (pct off_t raw_t)
       ((off_a -. raw_a) /. 1048576.0))

(* ----------------------------------------------- the [default] group -- *)

let run_default () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let merged = Analyze.merge ols instances results in
  let rows =
    Hashtbl.fold
      (fun _label by_name acc ->
        Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) by_name acc)
      merged []
    |> List.sort compare
  in
  Format.printf "%-45s %15s %10s@." "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ols) ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) ->
          if t > 1e9 then Printf.sprintf "%.3f s" (t /. 1e9)
          else if t > 1e6 then Printf.sprintf "%.3f ms" (t /. 1e6)
          else if t > 1e3 then Printf.sprintf "%.3f us" (t /. 1e3)
          else Printf.sprintf "%.1f ns" t
        | _ -> "n/a"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "n/a"
      in
      Format.printf "%-45s %15s %10s@." name time r2)
    rows;
  (* one machine-readable line for CI trend scraping: name -> ns/op *)
  let json =
    rows
    |> List.filter_map (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some (t :: _) -> Some (Printf.sprintf "%S: %.1f" name t)
           | _ -> None)
    |> String.concat ", "
  in
  emit_json (Printf.sprintf "{%s}" json)

(* --trace-out FILE: one traced run of the E16 assessment workload through
   the Ic_obs subsystem, exported as a Chrome trace next to the bench JSON *)
let run_trace file =
  current_phase := "trace";
  let g = F.Mesh.out_mesh 20 in
  let theory = F.Mesh.out_schedule 20 in
  let config = Ic_sim.Simulator.config ~n_clients:6 ~jitter:0.5 () in
  let trace = Ic_obs.Trace.create () in
  ignore
    (Ic_sim.Simulator.run ~sink:trace config
       (Ic_heuristics.Policy.of_schedule "ic-optimal" theory)
       ~workload:Ic_sim.Workload.unit g);
  (* the obs-export span lives at the call site: Ic_obs cannot depend on
     Ic_prof (Ic_prof reads JSON through Ic_obs.Json) *)
  let dump =
    Ic_prof.Span.time "obs.chrome_export" (fun () ->
        Ic_obs.Exporter.chrome_trace ~process_name:"bench sim_assessment"
          ~label:(Ic_dag.Dag.label g) trace)
  in
  let oc = open_out file in
  output_string oc dump;
  close_out oc;
  emit_json
    (Printf.sprintf
       "{\"phase\": \"trace\", \"bench\": \"trace_sim_assessment\", \
        \"events\": %d, \"trace_out\": %s}"
       (Ic_obs.Trace.length trace)
       (Ic_obs.Json.quote file))

(* --------------------------------------------------- group: par ------ *)

(* Records go through emit_json so --json-out and --compare see them like
   any other group. *)
let run_par () = Bench_par.run ~quick:!quick ~emit:emit_json

(* ------------------------------------------------ group: served ----- *)

(* Like par, the group stays out of the gate -- leases/sec is
   machine-specific. *)
let run_served () = Bench_served.run ~quick:!quick ~emit:emit_json

(* ------------------------------------------------- report + compare -- *)

let dump_profile () =
  let infos = Ic_prof.Span.capture () in
  (* the span table goes to stderr: stdout carries the JSON records *)
  prerr_string (Ic_prof.Report.to_text infos);
  (match !profile_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (Ic_prof.Report.to_json infos);
    close_out oc);
  match !flame_out with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc (Ic_prof.Report.to_collapsed infos);
    close_out oc

let run_compare file =
  match Baseline.load_file file with
  | Error e ->
    Printf.eprintf "cannot load baseline %s: %s\n" file e;
    exit 2
  | Ok baseline -> (
    match Baseline.load_string (records_document ()) with
    | Error e ->
      Printf.eprintf "cannot parse this run's records: %s\n" e;
      exit 2
    | Ok current ->
      let comparisons =
        Baseline.compare_runs ~thresholds:!thresholds ~baseline ~current ()
        |> List.filter (fun c -> c.Baseline.threshold <> None)
      in
      if comparisons = [] then begin
        Printf.eprintf "perf gate: no record in %s matches this run\n" file;
        exit 2
      end;
      Baseline.pp_comparisons stderr comparisons;
      if Baseline.regressed comparisons then begin
        prerr_endline "perf gate: REGRESSED";
        exit 1
      end
      else prerr_endline "perf gate: ok")

let () =
  parse_args ();
  if !profile && !compare_with <> None then
    prerr_endline
      "warning: --profile skews the timings --compare gates on; run the \
       gate un-profiled";
  if !profile then Ic_prof.Span.enable ();
  for _ = 1 to !repeat do
    match !group with
    | Default -> run_default ()
    | Large -> run_large ()
    | Fault -> run_fault ()
    | Prof -> run_prof ()
    | Par -> run_par ()
    | Served -> run_served ()
    (* the gate stays par- and served-free: their timings depend on the
       host's core count, so they would make the BASELINE compare
       machine-specific *)
    | Gate ->
      run_large ();
      run_fault ();
      run_prof ()
    | All ->
      run_default ();
      run_large ();
      run_fault ();
      run_prof ();
      run_par ();
      run_served ()
  done;
  Option.iter run_trace !trace_out;
  Option.iter write_json_array !json_out;
  if !profile then dump_profile ();
  Option.iter run_compare !compare_with
