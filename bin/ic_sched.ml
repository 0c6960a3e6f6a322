(* ic_sched: command-line front end for the IC-scheduling library.

   dune exec bin/ic_sched.exe -- info mesh:6
   dune exec bin/ic_sched.exe -- schedule butterfly:3
   dune exec bin/ic_sched.exe -- verify prefix:8
   dune exec bin/ic_sched.exe -- dot diamond:2.3
   dune exec bin/ic_sched.exe -- simulate mesh:16 --clients 8 --policy fifo
   dune exec bin/ic_sched.exe -- compare butterfly:5 --clients 8
   dune exec bin/ic_sched.exe -- trace --family mesh --n 256 --policy random -o trace.json *)

open Cmdliner
module Dag = Ic_dag.Dag
module Schedule = Ic_dag.Schedule
module Profile = Ic_dag.Profile
module Optimal = Ic_dag.Optimal
module Policy = Ic_heuristics.Policy

let family_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Ic_cli.Family_spec.parse s) in
  let print ppf (f : Ic_cli.Family_spec.t) = Format.pp_print_string ppf f.spec in
  Arg.conv (parse, print)

let family_pos =
  let doc =
    "Dag family specification. Known families: "
    ^ String.concat "; "
        (List.map (fun (k, v) -> Printf.sprintf "%s (%s)" k v)
           Ic_cli.Family_spec.families_help)
  in
  Arg.(required & pos 0 (some family_conv) None & info [] ~docv:"FAMILY" ~doc)

let policy_conv =
  let all =
    ("ic-optimal", None)
    (* bare alias for the seeded random baseline, whose canonical name
       carries the seed: random(0xf00d) *)
    :: ("random", Some (Policy.random 0xF00D))
    :: List.map (fun p -> (Policy.name p, Some p)) Policy.baselines
  in
  let parse s =
    match List.assoc_opt s all with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown policy %S (known: %s)" s
              (String.concat ", " (List.map fst all))))
  in
  let print ppf = function
    | None -> Format.pp_print_string ppf "ic-optimal"
    | Some p -> Format.pp_print_string ppf (Policy.name p)
  in
  Arg.conv (parse, print)

(* --- flags that several subcommands take, each defined once --- *)

let policy_arg =
  Arg.(
    value
    & opt policy_conv None
    & info [ "policy" ] ~doc:"Allocation policy (default: ic-optimal)")

(* the simulator seeds at 0x5EED, the hammer at 0x5E4D *)
let seed_arg default =
  Arg.(
    value & opt int default
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "Seed for the simulated execution times (simulate, compare, \
           trace) or for the hammer's service latencies and churn plan")

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the command's metrics registry as JSON to FILE when it \
           ends (for hammer, also when a reconnect or reply timeout ends \
           the run)")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event file with one track per domain (run) \
           or per shard (serve); load it in Perfetto")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST"
        ~doc:
          "Address of the server (hammer) or of its telemetry endpoint (top)")

(* FAMILY or --load FILE, exactly one of them; [missing] is the
   diagnostic when neither is given. A missing, truncated or corrupt
   snapshot is a one-line diagnostic naming the path and exit 2 — never
   a raw exception or a message that leaves the operator guessing which
   file was bad. The term yields a thunk so a --load runs under
   --profile. *)
type dag_source = Family of Ic_cli.Family_spec.t | Loaded of string * Dag.t

let dag_source_term cmd ~missing =
  let family =
    Arg.(
      value
      & pos 0 (some family_conv) None
      & info [] ~docv:"FAMILY"
          ~doc:
            "Dag family (see the info subcommand for known families). \
             Mutually exclusive with --load.")
  in
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:
            "Memory-map a snapshot written by the snapshot command in place \
             of FAMILY")
  in
  let resolve family load () =
    match (family, load) with
    | Some _, Some _ ->
      Format.eprintf "%s: give either FAMILY or --load, not both@." cmd;
      exit 1
    | None, None ->
      Format.eprintf "%s: %s@." cmd missing;
      exit 1
    | Some f, None -> Family f
    | None, Some path -> (
      match (try Dag.load path with e -> Error (Printexc.to_string e)) with
      | Ok g -> Loaded (path, g)
      | Error e ->
        Format.eprintf "%s: %s@." cmd
          (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e);
        exit 2)
  in
  Term.(const resolve $ family $ load)

(* a library constructor's Invalid_argument on an out-of-range flag is a
   one-line diagnostic and exit 1, not an uncaught exception *)
let or_die build =
  try build () with
  | Invalid_argument msg ->
    Format.eprintf "%s@." msg;
    exit 1

(* --- self-profiling flags, shared by every heavy subcommand --- *)

type prof = {
  prof_on : bool;
  prof_out : string option;
  prof_flame : string option;
}

let prof_term =
  let on =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Record wall-clock/allocation spans over the library's hot paths \
             and print the span tree to stderr on exit")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-out" ] ~docv:"FILE"
          ~doc:"Write the span tree as JSON to FILE (implies --profile)")
  in
  let flame =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame-out" ] ~docv:"FILE"
          ~doc:
            "Write collapsed stacks to FILE for flamegraph.pl or speedscope \
             (implies --profile)")
  in
  let build prof_on prof_out prof_flame =
    {
      prof_on = prof_on || prof_out <> None || prof_flame <> None;
      prof_out;
      prof_flame;
    }
  in
  Term.(const build $ on $ out $ flame)

(* the report is flushed from at_exit so it also survives the exit 1 paths
   (a failed verification still gets its profile) *)
let with_prof p f =
  if p.prof_on then begin
    Ic_prof.Span.enable ();
    at_exit (fun () ->
        Ic_prof.Span.disable ();
        let infos = Ic_prof.Span.capture () in
        prerr_string (Ic_prof.Report.to_text infos);
        Option.iter
          (fun file -> Artifact.write file (Ic_prof.Report.to_json infos))
          p.prof_out;
        Option.iter
          (fun file -> Artifact.write file (Ic_prof.Report.to_collapsed infos))
          p.prof_flame)
  end;
  f ()

(* --- info --- *)

let info_cmd =
  let run (f : Ic_cli.Family_spec.t) =
    let g = f.dag in
    Format.printf "%s@." f.description;
    Format.printf "nodes        %d@." (Dag.n_nodes g);
    Format.printf "arcs         %d@." (Dag.n_arcs g);
    Format.printf "sources      %d@." (List.length (Dag.sources g));
    Format.printf "sinks        %d@." (List.length (Dag.sinks g));
    Format.printf "longest path %d@." (Dag.longest_path g);
    Format.printf "connected    %b@." (Dag.is_connected g)
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Show a dag family's vital statistics")
    Term.(const run $ family_pos)

(* --- dot --- *)

let dot_cmd =
  let run (f : Ic_cli.Family_spec.t) = print_string (Dag.to_dot f.dag) in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the dag in GraphViz format")
    Term.(const run $ family_pos)

(* --- schedule --- *)

let schedule_cmd =
  let run (f : Ic_cli.Family_spec.t) prof =
    with_prof prof @@ fun () ->
    Format.printf "%s@." f.description;
    Format.printf "schedule: %a@." (Schedule.pp f.dag) f.schedule;
    Format.printf "eligibility profile: %a@." Profile.pp (Profile.run f.dag f.schedule)
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Print the family's constructive IC-optimal schedule and its profile")
    Term.(const run $ family_pos $ prof_term)

(* --- verify --- *)

let verify_cmd =
  let max_ideals =
    Arg.(value & opt int 2_000_000 & info [ "max-ideals" ] ~doc:"Ideal-enumeration budget")
  in
  let run (f : Ic_cli.Family_spec.t) max_ideals prof =
    if max_ideals < 0 then begin
      Format.eprintf "verify: --max-ideals must be >= 0@.";
      exit 1
    end;
    with_prof prof @@ fun () ->
    match Optimal.analyze ~max_ideals f.dag with
    | Error (`Too_large k) ->
      Format.printf
        "dag too large for exhaustive verification (%d); falling back to \
         dominance over 200 random schedules@."
        k;
      let rng = Random.State.make [| 0xC0FFEE |] in
      let p = Profile.run f.dag f.schedule in
      let dominated = ref 0 in
      for _ = 1 to 200 do
        if Profile.dominates p (Profile.run f.dag (Ic_dag.Gen.random_schedule rng f.dag))
        then incr dominated
      done;
      Format.printf "dominates %d / 200 sampled schedules@." !dominated;
      if !dominated < 200 then exit 1
    | Ok a ->
      let optimal = Profile.run f.dag f.schedule = a.Optimal.e_opt in
      Format.printf "ideals enumerated: %d@." a.Optimal.n_ideals;
      Format.printf "dag admits an IC-optimal schedule: %b@." a.Optimal.admits;
      Format.printf "constructive schedule is IC-optimal: %b@." optimal;
      if not optimal then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check the constructive schedule against the brute-force optimum")
    Term.(const run $ family_pos $ max_ideals $ prof_term)

(* --- simulate --- *)

let clients_arg =
  Arg.(value & opt int 4 & info [ "clients" ] ~doc:"Number of remote clients")

let jitter_arg =
  Arg.(value & opt float 0.25 & info [ "jitter" ] ~doc:"Execution-time noise amplitude")

(* --- fault-injection and recovery flags (simulate and trace) --- *)

let plan_term =
  let crash =
    Arg.(
      value & opt float 0.0
      & info [ "crash" ] ~docv:"RATE"
          ~doc:
            "Permanent client-crash rate (exponential arrival, per unit of \
             simulated time)")
  in
  let disconnect =
    Arg.(
      value & opt float 0.0
      & info [ "disconnect" ] ~docv:"RATE"
          ~doc:"Transient-disconnect rate per client (clients rejoin later)")
  in
  let downtime =
    Arg.(
      value & opt float 1.0
      & info [ "downtime" ] ~docv:"MEAN" ~doc:"Mean offline-episode length")
  in
  let straggle =
    Arg.(
      value & opt float 0.0
      & info [ "straggle" ] ~docv:"PROB"
          ~doc:"Per-attempt straggler (slowdown episode) probability")
  in
  let straggle_factor =
    Arg.(
      value & opt float 4.0
      & info [ "straggle-factor" ] ~docv:"F"
          ~doc:"Straggler slowdown multiplier")
  in
  let loss =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"PROB"
          ~doc:
            "Probability a result is silently lost in transit (recovered \
             only by --timeout)")
  in
  let fail =
    Arg.(
      value & opt float 0.0
      & info [ "fail" ] ~docv:"PROB"
          ~doc:
            "Probability of a reported end-of-task failure (the legacy coin \
             flip)")
  in
  let fault_seed =
    Arg.(
      value & opt int 0xFA17
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Fault-injection seed")
  in
  let build crash_rate disconnect_rate mean_downtime straggler_probability
      straggler_factor loss_probability fail_probability seed =
    or_die (fun () ->
        Ic_fault.Plan.make ~crash_rate ~disconnect_rate ~mean_downtime
          ~straggler_probability ~straggler_factor ~loss_probability
          ~fail_probability ~seed ())
  in
  Term.(
    const build $ crash $ disconnect $ downtime $ straggle $ straggle_factor
    $ loss $ fail $ fault_seed)

let recovery_term =
  let timeout =
    Arg.(
      value & opt (some float) None
      & info [ "timeout" ] ~docv:"FACTOR"
          ~doc:
            "Enable liveness timeouts: presume an attempt lost once it has \
             been out for FACTOR x its expected duration (plus --latency)")
  in
  let latency =
    Arg.(
      value & opt float 0.0
      & info [ "latency" ] ~docv:"T" ~doc:"Timeout detection latency")
  in
  let retries =
    Arg.(
      value & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Per-task retry budget (default unbounded); exhausting it aborts \
             the run with a partial result")
  in
  let backoff =
    Arg.(
      value & opt float 0.0
      & info [ "backoff" ] ~docv:"BASE"
          ~doc:
            "Retry backoff base delay (doubles per retry, with seeded \
             jitter)")
  in
  let backoff_max =
    Arg.(
      value & opt (some float) None
      & info [ "backoff-max" ] ~docv:"T" ~doc:"Cap on the retry backoff delay")
  in
  let speculate =
    Arg.(
      value & opt ~vopt:(Some 2.0) (some float) None
      & info [ "speculate" ] ~docv:"FACTOR"
          ~doc:
            "Enable speculative replicas once an attempt exceeds FACTOR x \
             its expected duration (FACTOR defaults to 2.0)")
  in
  let replicas =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Max simultaneously live attempts per task")
  in
  let deadline =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"T"
          ~doc:
            "Abort with a partial result when the simulated clock passes T")
  in
  let build timeout_factor detection_latency max_retries backoff_base
      backoff_max speculation_factor max_replicas deadline =
    or_die (fun () ->
        Ic_fault.Recovery.make ?timeout_factor ~detection_latency ?max_retries
          ~backoff_base ~backoff_jitter:0.5 ?backoff_max ?speculation_factor
          ~max_replicas ?deadline ())
  in
  Term.(
    const build $ timeout $ latency $ retries $ backoff $ backoff_max
    $ speculate $ replicas $ deadline)

(* the simulator settings simulate and trace share; [policy] None means
   the family's own IC-optimal schedule *)
type sim = {
  clients : int;
  config : Ic_sim.Simulator.config;
  policy : Policy.t option;
}

let sim_term =
  let build clients jitter seed policy faults recovery =
    let config =
      or_die (fun () ->
          Ic_sim.Simulator.config ~n_clients:clients ~jitter ~seed ~faults
            ~recovery ())
    in
    { clients; config; policy }
  in
  Term.(
    const build $ clients_arg $ jitter_arg $ seed_arg 0x5EED $ policy_arg
    $ plan_term $ recovery_term)

(* the one run body of simulate and trace: run, print the result, and
   return the policy that ran *)
let simulate ?sink ?live s (f : Ic_cli.Family_spec.t) =
  let policy =
    match s.policy with
    | Some p -> p
    | None -> Policy.of_schedule "ic-optimal" f.schedule
  in
  let r =
    Ic_sim.Simulator.run ?sink ?live s.config policy
      ~workload:Ic_sim.Workload.unit f.dag
  in
  Format.printf "%s under %s with %d clients:@.%a@." f.description
    (Policy.name policy) s.clients Ic_sim.Simulator.pp_result r;
  policy

let simulate_cmd =
  let run f s prof = with_prof prof @@ fun () -> ignore (simulate s f) in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the Internet-computing simulator on a family")
    Term.(const run $ family_pos $ sim_term $ prof_term)

(* --- compare --- *)

let compare_cmd =
  let run (f : Ic_cli.Family_spec.t) clients jitter seed prof =
    let config =
      or_die (fun () ->
          Ic_sim.Simulator.config ~n_clients:clients ~jitter ~seed ())
    in
    with_prof prof @@ fun () ->
    Format.printf "%s, %d clients:@." f.description clients;
    Ic_sim.Assessment.pp_rows Format.std_formatter
      (Ic_sim.Assessment.compare_policies ~config f.dag ~theory:f.schedule)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare the IC-optimal policy against every baseline heuristic")
    Term.(const run $ family_pos $ clients_arg $ jitter_arg $ seed_arg 0x5EED
      $ prof_term)

(* --- trace --- *)

let trace_cmd =
  let family_arg =
    let doc =
      "Dag family name (combined with --n, e.g. --family mesh --n 256) or a \
       full FAMILY spec such as mesh:256."
    in
    Arg.(required & opt (some string) None & info [ "family" ] ~docv:"FAMILY" ~doc)
  in
  let n_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "n" ] ~docv:"N" ~doc:"Size parameter appended to --family as FAMILY:N")
  in
  let out_arg =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Chrome trace-event output file (load it in Perfetto)")
  in
  let csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the eligibility timeline as CSV")
  in
  let metrics_arg =
    Arg.(value & flag & info [ "metrics" ] ~doc:"Print the metrics registry after the run")
  in
  let run family n s out csv metrics metrics_out prof =
    with_prof prof @@ fun () ->
    let spec =
      match n with Some n -> Printf.sprintf "%s:%d" family n | None -> family
    in
    match Ic_cli.Family_spec.parse spec with
    | Error e ->
      Format.eprintf "%s@." e;
      exit 1
    | Ok f ->
      let trace = Ic_obs.Trace.create () in
      let live = Ic_obs.Live.create () in
      let policy = simulate ~sink:trace ~live s f in
      Artifact.write out
        (Ic_obs.Exporter.chrome_trace
           ~process_name:(Printf.sprintf "ic_sched: %s under %s" f.description
                            (Policy.name policy))
           ~label:(Dag.label f.dag) trace);
      Option.iter
        (fun file ->
          Artifact.write file (Ic_obs.Exporter.eligibility_csv trace))
        csv;
      Format.printf "%d events -> %s (chrome://tracing or ui.perfetto.dev)@."
        (Ic_obs.Trace.length trace) out;
      Option.iter (Format.printf "eligibility timeline -> %s@.") csv;
      Option.iter
        (fun file ->
          Artifact.write file (Ic_obs.Live.to_json live);
          Format.printf "metrics -> %s@." file)
        metrics_out;
      if metrics then print_string (Ic_obs.Live.openmetrics ~process:false live)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a traced simulation and export it as Chrome trace-event JSON \
          (one track per client plus an |ELIGIBLE| counter track)")
    Term.(
      const run $ family_arg $ n_arg $ sim_term $ out_arg $ csv_arg
      $ metrics_arg $ metrics_out_arg $ prof_term)

(* --- batch --- *)

let batch_cmd =
  let size_arg =
    Arg.(value & opt int 2 & info [ "size"; "p" ] ~doc:"Batch size")
  in
  let exact_arg =
    Arg.(value & flag & info [ "exact" ] ~doc:"Use the exact (exponential) DP")
  in
  let run (f : Ic_cli.Family_spec.t) size exact prof =
    with_prof prof @@ fun () ->
    let module B = Ic_batch.Batched in
    let t =
      if exact then
        match or_die (fun () -> B.optimal f.dag ~batch_size:size) with
        | Ok t -> t
        | Error (`Too_large k) ->
          Format.eprintf "dag too large for the exact DP (%d states)@." k;
          exit 1
      else or_die (fun () -> B.greedy f.dag ~batch_size:size)
    in
    Format.printf "%s, %s %d-batched schedule:@." f.description
      (if exact then "lex-optimal" else "greedy") size;
    List.iteri
      (fun j batch ->
        Format.printf "  batch %2d: %s@." (j + 1)
          (String.concat " " (List.map (Dag.label f.dag) batch)))
      t.B.batches;
    Format.printf "profile after each batch: %a@." Profile.pp (B.profile f.dag t)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Produce a batched schedule (the [20]-style regimen; see Ic_batch)")
    Term.(const run $ family_pos $ size_arg $ exact_arg $ prof_term)

(* --- auto --- *)

let auto_cmd =
  let run (f : Ic_cli.Family_spec.t) =
    match Ic_core.Auto.schedule f.dag with
    | Error msg ->
      Format.eprintf "cannot auto-schedule: %s@." msg;
      exit 1
    | Ok p ->
      Format.printf "%s: decomposed into %d building blocks:@." f.description
        (List.length p.Ic_core.Auto.blocks);
      List.iter
        (fun b ->
          Format.printf "  level %d: %s@." b.Ic_core.Auto.level b.Ic_core.Auto.name)
        p.Ic_core.Auto.blocks;
      Format.printf "certificate: %s@."
        (match p.Ic_core.Auto.certificate with
        | `Linear -> "|>-linear (IC-optimal by Theorem 2.1)"
        | `Unverified -> "phase schedule only (|> failed at some step)");
      Format.printf "schedule: %a@."
        (Schedule.pp f.dag) p.Ic_core.Auto.schedule
  in
  Cmd.v
    (Cmd.info "auto"
       ~doc:
         "Decompose a levelled dag into building blocks and derive its \
          IC-optimal schedule automatically (the [21] algorithm)")
    Term.(const run $ family_pos)

(* --- snapshot --- *)

let snapshot_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the snapshot to FILE")
  in
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay" ]
          ~doc:
            "Profile-replay the dag (after saving, replay from the freshly \
             mapped snapshot; with --load, replay the loaded dag) and print \
             its eligibility summary")
  in
  let file_bytes path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in ic;
    n
  in
  let replay g =
    let order = Dag.topological_order g in
    let profile = Ic_dag.Frontier.profile g ~order in
    let n = Array.length profile - 1 in
    let widest = Array.fold_left max 0 profile in
    Format.printf "replay: %d steps, peak eligibility %d, drains to %d@." n
      widest profile.(n)
  in
  let describe what g =
    Format.printf "%s: %d nodes, %d arcs, %d sources@." what (Dag.n_nodes g)
      (Dag.n_arcs g) (Dag.n_sources g)
  in
  let source =
    dag_source_term "snapshot"
      ~missing:
        "nothing to do — give FAMILY -o FILE to save, or --load FILE to \
         inspect"
  in
  let run source out do_replay prof =
    with_prof prof @@ fun () ->
    match source () with
    | Loaded (path, g) ->
      describe path g;
      if do_replay then replay g
    | Family f -> (
      match out with
      | None ->
        Format.eprintf "snapshot: -o FILE is required to save a family@.";
        exit 1
      | Some path -> (
        match Dag.save f.dag path with
        | Error e ->
          Format.eprintf "snapshot: %s@." e;
          exit 1
        | Ok () ->
          describe f.description f.dag;
          Format.printf "saved -> %s (%d bytes)@." path (file_bytes path);
          if do_replay then (
            (* replay from the file, proving the snapshot stands alone *)
            match Dag.load path with
            | Error e ->
              Format.eprintf "snapshot: reload failed: %s@." e;
              exit 1
            | Ok g -> replay g)))
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Save a dag family as a binary snapshot, or memory-map one back \
          (O(1) reload) and optionally profile-replay it")
    Term.(
      const run $ source $ out_arg $ replay_arg $ prof_term)

(* --- run: the OCaml 5 parallel runtime --- *)

let run_cmd =
  let payload_arg =
    let doc =
      "Payload family: wavefront (edit distance on a SIZE x SIZE grid), fft \
       (the 2^SIZE-point FFT on B_SIZE), matmul (the 20-node dag M over \
       2^SIZE blocks), or quadrature (midpoint rule through the depth-SIZE \
       in-tree)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PAYLOAD" ~doc)
  in
  let size_arg =
    Arg.(value & opt int 20 & info [ "size" ] ~docv:"SIZE" ~doc:"Payload size knob")
  in
  let domains_arg =
    Arg.(
      value & opt int 0
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Worker domains (default: IC_PAR_DOMAINS or the recommended \
             count)")
  in
  let order_arg =
    Arg.(
      value
      & opt (enum Par_support.orders) Ic_par.Runtime.Steal
      & info [ "order" ] ~docv:"ORDER"
          ~doc:
            "Ready-task ordering: steal (plain Chase-Lev work stealing) or \
             ic (sharded priority pool over the IC-optimal order)")
  in
  let spin_arg =
    Arg.(
      value & opt float 0.0
      & info [ "spin-us" ] ~docv:"US"
          ~doc:"Calibrated busy-work added to every task, in microseconds")
  in
  let no_check_arg =
    Arg.(
      value & flag
      & info [ "no-check" ]
          ~doc:
            "Skip the sequential baseline run and the parallel-vs-sequential \
             result comparison")
  in
  let run payload size domains order spin_us trace_out metrics_out no_check =
    match
      Par_support.run ~family:payload ~size ~spin_us ~domains ~order
        ?trace_out ?metrics_out ~check:(not no_check) ()
    with
    | Error e ->
      Format.eprintf "run: %s@." e;
      exit 1
    | Ok o ->
      let s = o.Par_support.stats in
      Format.printf "%s: %d tasks on %d domains, order %s@." o.payload
        s.tasks s.domains (Par_support.order_name order);
      Format.printf "wall %.4fs" s.wall_s;
      if not (Float.is_nan o.seq_wall_s) then
        Format.printf " (sequential %.4fs, speedup %.2fx)" o.seq_wall_s
          (o.seq_wall_s /. s.wall_s);
      Format.printf "@.";
      Format.printf "steals %d/%d attempts, overflows %d, parks %d@." s.steals
        s.steal_attempts s.overflows s.parks;
      Option.iter (Format.printf "trace -> %s@.") trace_out;
      Option.iter (Format.printf "metrics -> %s@.") metrics_out;
      if not no_check then begin
        Format.printf "results match sequential engine: %b@." o.ok;
        if not o.ok then exit 1
      end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a real payload on the OCaml 5 domains-based parallel \
          runtime (work-stealing deques over the dag's frontier)")
    Term.(
      const run $ payload_arg $ size_arg $ domains_arg $ order_arg $ spin_arg
      $ trace_out_arg $ metrics_out_arg $ no_check_arg)

(* --- serve / hammer: the lease-serving subsystem over loopback TCP --- *)

let port_arg =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port on 127.0.0.1 (serve: 0 picks a free one)")

let serve_cmd =
  let shards_arg =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Frontier shards (disjoint lease pools, one lock each)")
  in
  let max_lease_arg =
    Arg.(
      value & opt int 64
      & info [ "max-lease" ] ~docv:"K" ~doc:"Cap on tasks handed per lease")
  in
  let expected_arg =
    Arg.(
      value & opt float 1.0
      & info [ "expected-s" ] ~docv:"S"
          ~doc:
            "Expected task service time in seconds; leases expire and \
             re-issue after 4x this")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Exit once at least one client has connected and every \
             connection has closed (for scripted runs)")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write-ahead journal: append every completion and lease grant \
             before acknowledging it, so a killed server can be restarted \
             with --recover")
  in
  let checkpoint_arg =
    Arg.(
      value & opt int 1024
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Compact the journal after every N journaled completions: it \
             rotates to a file holding one checkpoint, fsynced off the \
             serving thread (FILE.prev is kept until that fsync is done)")
  in
  let fsync_arg =
    Arg.(
      value & flag
      & info [ "fsync" ]
          ~doc:
            "fsync the journal before each batch of replies is sent \
             (machine-crash durable; default flushes to the OS before each \
             batch, which survives kill -9)")
  in
  let recover_arg =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Rebuild server state by replaying --journal before serving: \
             journaled completions are never re-leased, \
             leased-but-unjournaled tasks re-issue")
  in
  let telemetry_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "telemetry-port" ] ~docv:"PORT"
          ~doc:
            "Serve live served.* metrics and process gauges in OpenMetrics \
             text format from a second loopback listener (0 picks a free \
             port; scrape it with curl, Prometheus or ic_sched top)")
  in
  let telemetry_csv_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry-csv" ] ~docv:"FILE"
          ~doc:
            "Append a counters snapshot row to FILE on the telemetry \
             cadence while serving")
  in
  let telemetry_every_arg =
    Arg.(
      value & opt float 1.0
      & info [ "telemetry-every-s" ] ~docv:"S"
          ~doc:"Seconds between telemetry CSV snapshot rows (default 1.0)")
  in
  let flight_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight" ] ~docv:"FILE"
          ~doc:
            "Record recent lease/completion/expiry events into a fixed-size \
             mmap'd flight-recorder ring that survives kill -9 (inspect it \
             with ic_sched blackbox; --recover continues an existing ring). \
             The ring is the server's trace sink, so not with --trace-out")
  in
  let run source port shards max_lease expected_s once journal
      checkpoint_every fsync recover telemetry_port telemetry_csv
      telemetry_every_s flight metrics_out trace_out prof =
    with_prof prof @@ fun () ->
    let dag =
      match source () with Family f -> f.dag | Loaded (_, g) -> g
    in
    let n_tasks = Dag.n_nodes dag in
    match
      Served_support.serve ~dag ~port ~shards ~max_lease ~expected_s ~once
        ~journal ~checkpoint_every ~fsync ~recover ~telemetry_port
        ~telemetry_csv ~telemetry_every_s ~flight ?metrics_out ?trace_out ()
    with
    | Error e ->
      Format.eprintf "serve: %s@." e;
      exit 1
    | Ok st ->
      if recover then
        Format.printf "recovered %d completions from journal, %d re-issues@."
          st.Ic_served.Server.recovered_tasks st.recovered_reissues;
      Format.printf
        "served %d/%d tasks: %d leases (%d tasks), %d reissues, %d \
         duplicates, %d retry-afters, %d protocol errors@."
        st.completions n_tasks st.leases st.leased_tasks st.reissues
        st.duplicate_completes st.retry_afters st.protocol_errors;
      Option.iter (Format.printf "trace -> %s@.") trace_out;
      Option.iter (Format.printf "metrics -> %s@.") metrics_out;
      Option.iter (Format.printf "telemetry csv -> %s@.") telemetry_csv;
      Option.iter (Format.printf "flight ring -> %s@.") flight;
      if st.completions <> n_tasks || st.inflight <> 0 then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Lease a dag's eligible tasks to remote workers over loopback TCP \
          (length-prefixed binary frames, sharded frontier, lease expiry \
          and re-issue; optional write-ahead journal, crash recovery, \
          OpenMetrics telemetry endpoint and flight recorder)")
    Term.(
      const run
      $ dag_source_term "serve" ~missing:"give a FAMILY or --load FILE"
      $ port_arg $ shards_arg
      $ max_lease_arg $ expected_arg $ once_arg $ journal_arg
      $ checkpoint_arg $ fsync_arg $ recover_arg $ telemetry_port_arg
      $ telemetry_csv_arg $ telemetry_every_arg $ flight_arg $ metrics_out_arg
      $ trace_out_arg $ prof_term)

let hammer_cmd =
  let workers_arg =
    Arg.(
      value & opt int 1024
      & info [ "workers" ] ~docv:"N" ~doc:"Simulated workers to drive")
  in
  let connections_arg =
    Arg.(
      value & opt int 4
      & info [ "connections" ] ~docv:"N"
          ~doc:"Real TCP connections the workers are multiplexed over")
  in
  let k_arg =
    Arg.(
      value & opt int 8
      & info [ "k" ] ~docv:"K" ~doc:"Tasks requested per lease")
  in
  let churn_arg =
    Arg.(
      value & flag
      & info [ "churn" ]
          ~doc:
            "Subject the fleet to a seeded crash/disconnect/rejoin plan \
             (exercises lease expiry and re-issue)")
  in
  let service_arg =
    Arg.(
      value & opt float 0.01
      & info [ "mean-service-s" ] ~docv:"S"
          ~doc:"Mean simulated task service time (bounded Pareto)")
  in
  let think_arg =
    Arg.(
      value & opt float 0.001
      & info [ "think-s" ] ~docv:"S"
          ~doc:"Pause between finishing a batch and requesting the next")
  in
  let chaos_arg =
    Arg.(
      value & opt float 0.0
      & info [ "chaos" ] ~docv:"RATE"
          ~doc:
            "Mangle outgoing frames at this rate (drop and bit-flip at RATE, \
             truncate at RATE/2) from a deterministic seeded stream; the \
             client heals by reply timeout and reconnect")
  in
  let chaos_seed_arg =
    Arg.(
      value & opt int 0xC4A0
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Seed for the wire-chaos decision stream")
  in
  let utilization_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "utilization-out" ] ~docv:"FILE"
          ~doc:
            "Write a per-worker busy-time CSV (worker,busy_s,utilization) on \
             exit")
  in
  let run host port workers connections k churn seed mean_service_s think_s
      chaos chaos_seed utilization_out metrics_out =
    match
      Served_support.hammer ~host ~port ~workers ~connections ~k ~churn ~seed
        ~mean_service_s ~think_s ~chaos ~chaos_seed ~utilization_out
        ?metrics_out ()
    with
    | Error e ->
      Format.eprintf "ic_sched hammer: %s@." e;
      exit 1
    | Ok r ->
      Format.printf
        "%d workers over %d connections: %d completes, %d crashed, %d \
         disconnects, %d reconnects, dag done %b, wall %.3fs@."
        r.Ic_served.Tcp.workers connections r.completes_sent r.crashed
        r.disconnects r.reconnects r.done_seen r.wall_s;
      Format.printf "lease grant p50 %.6fs p99 %.6fs@." r.lease_grant_p50_s
        r.lease_grant_p99_s;
      Format.printf "task service p50 %.6fs p99 %.6fs@." r.task_service_p50_s
        r.task_service_p99_s;
      Option.iter (Format.printf "utilization -> %s@.") utilization_out;
      Option.iter (Format.printf "metrics -> %s@.") metrics_out;
      if not r.done_seen then exit 1
  in
  Cmd.v
    (Cmd.info "hammer"
       ~doc:
         "Load-test a running serve instance: simulated workers with \
          heavy-tailed service latencies and optional churn, multiplexed \
          over a few real connections")
    Term.(
      const run $ host_arg $ port_arg $ workers_arg $ connections_arg $ k_arg
      $ churn_arg $ seed_arg 0x5E4D $ service_arg $ think_arg $ chaos_arg
      $ chaos_seed_arg $ utilization_arg $ metrics_out_arg)

(* --- blackbox: read a flight-recorder ring back --- *)

let blackbox_cmd =
  let ring_pos =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RING"
          ~doc:"Flight-recorder ring file written by serve --flight")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the recovered event tail as Chrome trace-event JSON (load \
             it in Perfetto)")
  in
  let run ring out =
    match Ic_obs.Trace.load ring with
    | Error e ->
      Format.eprintf "blackbox: %s@." e;
      exit 2
    | Ok d ->
      let events = d.Ic_obs.Trace.events in
      let n = Array.length events in
      Format.printf "%s: %d of %d slots hold valid frames@." ring
        d.Ic_obs.Trace.d_valid d.Ic_obs.Trace.d_slots;
      if n > 0 then begin
        let first = events.(0) and last = events.(n - 1) in
        Format.printf "seq %d..%d, time %.6fs..%.6fs@."
          first.Ic_obs.Trace.seq last.Ic_obs.Trace.seq
          first.event.time last.event.time;
        (* per-kind histogram of the surviving tail, stable order *)
        let counts = Hashtbl.create 8 in
        Array.iter
          (fun (f : Ic_obs.Trace.frame) ->
            let k = Ic_obs.Trace.kind_name f.event.kind in
            Hashtbl.replace counts k
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
          events;
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
        |> List.sort compare
        |> List.iter (fun (k, v) -> Format.printf "  %-16s %d@." k v)
      end;
      Option.iter
        (fun file ->
          Artifact.write file
            (Ic_obs.Exporter.chrome_trace
               ~process_name:(Printf.sprintf "ic_sched blackbox: %s" ring)
               (Ic_obs.Trace.of_dump d));
          Format.printf "%d events -> %s (chrome://tracing or \
                         ui.perfetto.dev)@."
            n file)
        out
  in
  Cmd.v
    (Cmd.info "blackbox"
       ~doc:
         "Recover the event tail from a flight-recorder ring (CRC-framed, \
          mmap'd, survives kill -9) and summarize or export it to Perfetto")
    Term.(const run $ ring_pos $ out_arg)

(* --- top: a terminal dashboard over the telemetry endpoint --- *)

let top_cmd =
  let tport_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Telemetry port printed by serve --telemetry-port")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"S" ~doc:"Seconds between refreshes")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after N refreshes (0 = run until interrupted)")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Print a single plain sample and exit (for scripts)")
  in
  let scrape addr =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd addr;
    let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
    ignore (Unix.write fd req 0 (Bytes.length req));
    let buf = Buffer.create 4096 in
    let chunk = Bytes.create 4096 in
    let rec drain () =
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n > 0 then begin
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
      end
    in
    drain ();
    Buffer.contents buf
  in
  (* keep `name value` samples in exposition order; histogram bucket
     lines (the only labelled ones) are folded out *)
  let parse page =
    let body =
      (* skip the HTTP header block if one is present *)
      let sep = "\r\n\r\n" in
      let n = String.length page and sn = String.length sep in
      let rec find i =
        if i + sn > n then None
        else if String.sub page i sn = sep then Some (i + sn)
        else find (i + 1)
      in
      match find 0 with
      | Some i -> String.sub page i (n - i)
      | None -> page
    in
    String.split_on_char '\n' body
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' || String.contains line '{' then
             None
           else
             match String.index_opt line ' ' with
             | None -> None
             | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)) ))
  in
  let ends_with_total name =
    let n = String.length name in
    n >= 6 && String.sub name (n - 6) 6 = "_total"
  in
  let run host port interval iterations once =
    if iterations < 0 then begin
      Format.eprintf "ic_sched top: --iterations must be >= 0@.";
      exit 1
    end;
    let addr =
      match Ic_served.Tcp.resolve ~host ~port with
      | Ok a -> a
      | Error e ->
        Format.eprintf "ic_sched top: %s@." e;
        exit 1
    in
    let iterations = if once then 1 else iterations in
    let prev = ref [] in
    let t_prev = ref 0.0 in
    let i = ref 0 in
    try
      while iterations = 0 || !i < iterations do
        if !i > 0 then Unix.sleepf interval;
        incr i;
        let t = Unix.gettimeofday () in
        let sample = parse (scrape addr) in
        if not once then print_string "\027[H\027[2J";
        Format.printf "ic_sched top — %s:%d — sample %d@." host port !i;
        List.iter
          (fun (name, v) ->
            let rate =
              if !i > 1 && ends_with_total name then
                match
                  (List.assoc_opt name !prev, float_of_string_opt v)
                with
                | Some pv, Some fv -> (
                  match float_of_string_opt pv with
                  | Some fpv when t > !t_prev ->
                    Some ((fv -. fpv) /. (t -. !t_prev))
                  | _ -> None)
                | _ -> None
              else None
            in
            match rate with
            | Some r -> Format.printf "  %-44s %16s %12.1f/s@." name v r
            | None -> Format.printf "  %-44s %16s@." name v)
          sample;
        flush stdout;
        prev := sample;
        t_prev := t
      done
    with Unix.Unix_error (e, fn, _) ->
      Format.eprintf "ic_sched top: %s: %s@." fn (Unix.error_message e);
      exit 1
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll a serve --telemetry-port endpoint and render the live \
          counters (with per-second rates) as a refreshing terminal \
          dashboard")
    Term.(
      const run $ host_arg $ tport_arg $ interval_arg $ iterations_arg
      $ once_arg)

(* --- prio --- *)

let prio_cmd =
  (* the PRIO-tool idea of the paper's reference [19]: turn the IC-optimal
     schedule into static per-task priorities for a Condor-DAGMan-style
     engine (higher priority = allocate earlier) *)
  let run (f : Ic_cli.Family_spec.t) =
    let n = Dag.n_nodes f.dag in
    let order = Schedule.order f.schedule in
    Array.iteri
      (fun rank v ->
        Format.printf "JOB %s PRIORITY %d@." (Dag.label f.dag v) (n - rank))
      order
  in
  Cmd.v
    (Cmd.info "prio"
       ~doc:
         "Export the IC-optimal schedule as static task priorities \
          (DAGMan-style, after the PRIO tool of [19])")
    Term.(const run $ family_pos)

let main =
  Cmd.group
    (Cmd.info "ic_sched" ~version:"1.0.0"
       ~doc:"IC-Scheduling Theory: dags, IC-optimal schedules, and simulation")
    [ info_cmd; dot_cmd; schedule_cmd; verify_cmd; simulate_cmd; compare_cmd;
      trace_cmd; batch_cmd; auto_cmd; prio_cmd; snapshot_cmd; run_cmd;
      serve_cmd; hammer_cmd; blackbox_cmd; top_cmd ]

(* cmdliner only knows single-char names as short options, but the trace
   subcommand documents the GNU-ish spelling --n for its size parameter,
   and hammer likewise --k for its batch size *)
let argv =
  Array.map
    (fun a -> match a with "--n" -> "-n" | "--k" -> "-k" | _ -> a)
    Sys.argv
let () = exit (Cmd.eval ~argv main)
