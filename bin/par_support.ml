type outcome = {
  payload : string;
  seq_wall_s : float;
  stats : Ic_par.Runtime.stats;
  ok : bool;
}

let orders =
  [ ("steal", Ic_par.Runtime.Steal); ("ic", Ic_par.Runtime.Ic_priority) ]

let order_name order = fst (List.find (fun (_, o) -> o = order) orders)

let run ~family ~size ~spin_us ~domains ~order ?trace_out ?metrics_out ~check ()
    =
  if domains < 0 then Error "--domains must be >= 0 (0 = auto)"
  else
    try
      match Ic_par.Payload.make ~spin_us ~family ~size () with
      | exception Invalid_argument msg -> Error msg
      | p ->
        let g = Ic_par.Payload.dag p in
        let domains =
          if domains > 0 then domains else Ic_par.Runtime.default_domains ()
        in
        let seq_wall_s, seq_fp =
          if check then begin
            let t0 = Ic_prof.Monotonic.now () in
            let fp = Ic_par.Payload.execute p in
            (Ic_prof.Monotonic.now () -. t0, Some fp)
          end
          else (Float.nan, None)
        in
        let sink = Option.map (fun _ -> Ic_obs.Trace.create ()) trace_out in
        let live = Option.map (fun _ -> Ic_obs.Live.create ()) metrics_out in
        let stats = ref None in
        let executor =
          Ic_par.Runtime.executor ~domains ~order
            ~priority:(Ic_par.Payload.rank p) ?sink ?live
            ~on_stats:(fun s -> stats := Some s)
            ()
        in
        let par_fp = Ic_par.Payload.execute ~executor p in
        let stats = match !stats with Some s -> s | None -> assert false in
        Option.iter
          (fun file ->
            Artifact.write file
              (Ic_obs.Exporter.chrome_trace
                 ~process_name:
                   (Printf.sprintf "ic_par: %s under %s, %d domains"
                      (Ic_par.Payload.name p) (order_name order) domains)
                 ~label:(Ic_dag.Dag.label g)
                 (Option.get sink)))
          trace_out;
        Option.iter
          (fun file ->
            Artifact.write file (Ic_obs.Live.to_json (Option.get live)))
          metrics_out;
        let ok =
          match seq_fp with
          | None -> true
          | Some fp -> fp = par_fp && Ic_par.Payload.check p par_fp
        in
        Ok { payload = Ic_par.Payload.name p; seq_wall_s; stats; ok }
    with Out_of_memory ->
      Error
        (Printf.sprintf "%s --size %d: not enough memory for this payload"
           family size)
