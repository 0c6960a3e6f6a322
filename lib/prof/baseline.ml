(* Statistical perf-regression gate.

   Bench records are objects with a "bench" name and numeric metric
   fields (time_ms, allocated_mb, ...). A run repeats each bench k times
   and emits k records per name; [fold_min] keeps the per-metric minimum
   across repetitions — min-of-k is the standard robust estimator for
   wall-clock benchmarks, since noise (scheduler preemption, cache
   pollution) only ever adds time.

   [compare_runs] then checks each (bench, metric) pair present in both
   runs against a relative threshold: current > baseline * (1 + tau) is
   a regression. Metrics without a configured threshold are reported but
   never gate. *)

module Json = Ic_obs.Json

type record = { bench : string; metrics : (string * float) list }

type comparison = {
  cmp_bench : string;
  metric : string;
  base : float;
  cur : float;
  ratio : float;  (* cur /. base, or nan when base <= 0 *)
  threshold : float option;
  regressed : bool;
}

let default_thresholds = [ ("time_ms", 0.25); ("allocated_mb", 0.5) ]

let record_of_json v =
  match Json.member "bench" v with
  | Some (Json.String bench) ->
    let metrics =
      match v with
      | Json.Object fields ->
        List.filter_map
          (fun (k, v) ->
            match v with Json.Number f -> Some (k, f) | _ -> None)
          fields
      | _ -> []
    in
    Some { bench; metrics }
  | _ -> None

let records_of_json v =
  List.filter_map record_of_json (Json.to_list v)

(* a document that is not an array would otherwise load as no records
   and make the gate compare nothing *)
let load_string s =
  match Json.parse s with
  | Ok (Json.Array _ as v) -> Ok (records_of_json v)
  | Ok _ -> Error "not a JSON array of bench records"
  | Error e -> Error e

let load_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> load_string s
  | exception Sys_error e -> Error e

(* min-of-k: collapse repeated records for the same bench name, keeping
   the per-metric minimum; first-seen order of names is preserved *)
let fold_min records =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match Hashtbl.find_opt tbl r.bench with
      | None ->
        order := r.bench :: !order;
        Hashtbl.replace tbl r.bench r.metrics
      | Some prev ->
        let merged =
          List.map
            (fun (k, v) ->
              match List.assoc_opt k r.metrics with
              | Some v' -> (k, Float.min v v')
              | None -> (k, v))
            prev
        in
        (* metrics present only in the later repetition are appended *)
        let extra =
          List.filter (fun (k, _) -> not (List.mem_assoc k merged)) r.metrics
        in
        Hashtbl.replace tbl r.bench (merged @ extra))
    records;
  List.rev_map (fun b -> { bench = b; metrics = Hashtbl.find tbl b }) !order

let compare_runs ?(thresholds = default_thresholds) ~baseline ~current () =
  let baseline = fold_min baseline and current = fold_min current in
  List.concat_map
    (fun b ->
      match List.find_opt (fun c -> c.bench = b.bench) current with
      | None -> []
      | Some c ->
        List.filter_map
          (fun (metric, base) ->
            match List.assoc_opt metric c.metrics with
            | None -> None
            | Some cur ->
              let threshold = List.assoc_opt metric thresholds in
              let ratio = if base > 0.0 then cur /. base else Float.nan in
              let regressed =
                match threshold with
                | Some tau -> base > 0.0 && cur > base *. (1.0 +. tau)
                | None -> false
              in
              Some
                { cmp_bench = b.bench; metric; base; cur; ratio; threshold;
                  regressed })
          b.metrics)
    baseline

let regressed comparisons = List.exists (fun c -> c.regressed) comparisons

let pp_comparisons out comparisons =
  Printf.fprintf out "%-32s %-14s %12s %12s %8s  %s\n" "bench" "metric"
    "baseline" "current" "ratio" "verdict";
  List.iter
    (fun c ->
      let verdict =
        if c.regressed then "REGRESSED"
        else
          match c.threshold with
          | Some _ when c.base > 0.0 && c.ratio < 0.9 -> "improved"
          | Some _ -> "ok"
          | None -> "-"
      in
      Printf.fprintf out "%-32s %-14s %12.3f %12.3f %8.3f  %s\n" c.cmp_bench
        c.metric c.base c.cur c.ratio verdict)
    comparisons
