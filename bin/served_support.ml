type serve_outcome = {
  n_tasks : int;
  completions : int;
  leases : int;
  leased_tasks : int;
  reissues : int;
  duplicates : int;
  retry_afters : int;
  heartbeats : int;
  protocol_errors : int;
  inflight : int;
  recovered_tasks : int;
  recovered_reissues : int;
}

type hammer_outcome = {
  h_workers : int;
  completes_sent : int;
  done_seen : bool;
  crashed : int;
  disconnects : int;
  reconnects : int;
  h_wall_s : float;
  grant_p50_s : float;
  grant_p99_s : float;
  service_p50_s : float;
  service_p99_s : float;
}

let write_file file contents =
  let oc = open_out file in
  output_string oc contents;
  close_out oc

let serve ~dag ~port ~shards ~max_lease ~expected_s ~once ~journal
    ~checkpoint_every ~fsync ~recover ~telemetry_port ~telemetry_csv
    ~telemetry_every_s ~flight ?metrics_out ?trace_out () =
  match
    Ic_served.Server.config ~n_shards:shards ~max_lease ~expected_s ()
  with
  | exception Invalid_argument msg -> Error msg
  | _ when recover && journal = None ->
    Error "--recover needs --journal: the journal is what is replayed"
  | cfg -> (
    let jr =
      match journal with
      | None -> Ok None
      | Some path -> (
        match Ic_served.Journal.open_ ~fsync ~checkpoint_every path with
        | Ok j -> Ok (Some j)
        | Error e -> Error e)
    in
    match jr with
    | Error e -> Error e
    | Ok j -> (
      (* the flight ring reopens in place under --recover: same
         geometry means the pre-crash frames stay put and numbering
         continues, so blackbox shows the tail across the kill *)
      let fr =
        match flight with
        | None -> Ok None
        | Some path -> (
          match Ic_obs.Flight.create path with
          | Ok f -> Ok (Some f)
          | Error e ->
            Option.iter Ic_served.Journal.close j;
            Error e)
      in
      match fr with
      | Error e -> Error e
      | Ok fl -> (
      let sink = Option.map (fun _ -> Ic_obs.Trace.create ()) trace_out in
      let live = Option.map (fun _ -> Ic_obs.Live.create ()) metrics_out in
      match
        Ic_served.Tcp.serve ?sink ?journal:j ~recover ?live
          ~log:(fun line -> Printf.eprintf "ic_sched serve: %s\n%!" line)
          ?flight:fl ?telemetry_port ?telemetry_csv
          ~telemetry_every_s
          ?on_telemetry_listen:
            (Option.map
               (fun _ p ->
                 Format.printf "telemetry on 127.0.0.1:%d@." p;
                 flush stdout)
               telemetry_port)
          ~on_listen:(fun p ->
            Format.printf "serving %d tasks on 127.0.0.1:%d (%d shards)@."
              (Ic_dag.Dag.n_nodes dag) p shards;
            (* the port line is what scripts (and the CI smoke job) wait
               for before launching the hammer, so it must not sit in a
               buffer while the select loop blocks *)
            flush stdout)
          ~once ~port cfg dag
      with
      | exception Unix.Unix_error (e, fn, _) ->
        Option.iter Ic_served.Journal.close j;
        Option.iter Ic_obs.Flight.close fl;
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
      | exception Invalid_argument msg ->
        Option.iter Ic_served.Journal.close j;
        Option.iter Ic_obs.Flight.close fl;
        Error msg
      | st ->
        Option.iter Ic_served.Journal.close j;
        Option.iter Ic_obs.Flight.close fl;
        Option.iter
          (fun file ->
            write_file file
              (Ic_obs.Exporter.chrome_trace
                 ~process_name:
                   (Printf.sprintf "ic_served: %d tasks over %d shards"
                      (Ic_dag.Dag.n_nodes dag) shards)
                 ~label:(Ic_dag.Dag.label dag)
                 (Option.get sink)))
          trace_out;
        Option.iter
          (fun file ->
            write_file file (Ic_obs.Live.to_json (Option.get live)))
          metrics_out;
        Ok
          {
            n_tasks = Ic_dag.Dag.n_nodes dag;
            completions = st.Ic_served.Server.completions;
            leases = st.Ic_served.Server.leases;
            leased_tasks = st.Ic_served.Server.leased_tasks;
            reissues = st.Ic_served.Server.reissues;
            duplicates = st.Ic_served.Server.duplicate_completes;
            retry_afters = st.Ic_served.Server.retry_afters;
            heartbeats = st.Ic_served.Server.heartbeats;
            protocol_errors = st.Ic_served.Server.protocol_errors;
            inflight = st.Ic_served.Server.inflight;
            recovered_tasks = st.Ic_served.Server.recovered_tasks;
            recovered_reissues = st.Ic_served.Server.recovered_reissues;
          })))

(* the client-side registry mirrors what the hammer measured; written
   via Live so the JSON shape matches every other artifact *)
let hammer_metrics_json (r : Ic_served.Tcp.hammer_result) =
  let l = Ic_obs.Live.create () in
  let c name v = Ic_obs.Live.incr (Ic_obs.Live.counter l name) ~shard:0 v in
  let g name v = Ic_obs.Live.set (Ic_obs.Live.gauge l name) v in
  c "hammer.workers" r.Ic_served.Tcp.workers;
  c "hammer.completes_sent" r.Ic_served.Tcp.completes_sent;
  c "hammer.crashed" r.Ic_served.Tcp.crashed;
  c "hammer.disconnects" r.Ic_served.Tcp.disconnects;
  c "hammer.reconnects" r.Ic_served.Tcp.reconnects;
  c "hammer.done_seen" (if r.Ic_served.Tcp.done_seen then 1 else 0);
  g "hammer.wall_s" r.Ic_served.Tcp.wall_s;
  g "hammer.lease_grant_p50_s" r.Ic_served.Tcp.lease_grant_p50_s;
  g "hammer.lease_grant_p99_s" r.Ic_served.Tcp.lease_grant_p99_s;
  g "hammer.task_service_p50_s" r.Ic_served.Tcp.task_service_p50_s;
  g "hammer.task_service_p99_s" r.Ic_served.Tcp.task_service_p99_s;
  Ic_obs.Live.to_json l

let hammer ~host ~port ~workers ~connections ~k ~churn ~seed ~mean_service_s
    ~think_s ~chaos ~chaos_seed ~utilization_out ?metrics_out () =
  let plan =
    if churn then
      Ic_fault.Plan.make ~crash_rate:0.002 ~disconnect_rate:0.02
        ~mean_downtime:0.5 ~seed ()
    else Ic_fault.Plan.none
  in
  let wire =
    if chaos > 0.0 then
      match
        Ic_fault.Plan.Wire.make ~drop:chaos ~corrupt:chaos
          ~truncate:(chaos /. 2.0) ~seed:chaos_seed ()
      with
      | exception Invalid_argument msg -> Error msg
      | w -> Ok (Some w)
    else Ok None
  in
  match wire with
  | Error e -> Error e
  | Ok wire -> (
    match
      Ic_served.Hammer.config ~workers ~k ~mean_service_s ~think_s ~churn:plan
        ~seed ()
    with
    | exception Invalid_argument msg -> Error msg
    | cfg -> (
      match
        Ic_served.Tcp.hammer ~host ~connections ?chaos:wire
          ~log:(fun line -> Printf.eprintf "ic_sched hammer: %s\n%!" line)
          ~port cfg
      with
      | exception Unix.Unix_error (e, fn, _) ->
        (* only the initial dial raises now — mid-run socket losses
           finalize inside Tcp.hammer and land in the [r] branch below,
           so the CSV/JSON artifacts survive a server that died *)
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
      | exception Invalid_argument msg -> Error msg
      | r ->
        Option.iter
          (fun file ->
            let b = Buffer.create 1024 in
            Buffer.add_string b "worker,busy_s,utilization\n";
            Array.iteri
              (fun i busy ->
                Buffer.add_string b
                  (Printf.sprintf "%d,%.6f,%.4f\n" i busy
                     (if r.Ic_served.Tcp.wall_s > 0.0 then
                        busy /. r.Ic_served.Tcp.wall_s
                      else 0.0)))
              r.Ic_served.Tcp.busy_s;
            write_file file (Buffer.contents b))
          utilization_out;
        Option.iter (fun file -> write_file file (hammer_metrics_json r))
          metrics_out;
        Ok
          {
            h_workers = r.Ic_served.Tcp.workers;
            completes_sent = r.Ic_served.Tcp.completes_sent;
            done_seen = r.Ic_served.Tcp.done_seen;
            crashed = r.Ic_served.Tcp.crashed;
            disconnects = r.Ic_served.Tcp.disconnects;
            reconnects = r.Ic_served.Tcp.reconnects;
            h_wall_s = r.Ic_served.Tcp.wall_s;
            grant_p50_s = r.Ic_served.Tcp.lease_grant_p50_s;
            grant_p99_s = r.Ic_served.Tcp.lease_grant_p99_s;
            service_p50_s = r.Ic_served.Tcp.task_service_p50_s;
            service_p99_s = r.Ic_served.Tcp.task_service_p99_s;
          }))
