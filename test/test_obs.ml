(* Tests for the Ic_obs observability subsystem: the flat trace buffer,
   the Live metrics registry, the Chrome-trace/CSV exporters (round-tripped
   through the bundled JSON reader), and the wiring through Simulator and
   Engine — including byte-level determinism of exports. *)

module Trace = Ic_obs.Trace
module Exporter = Ic_obs.Exporter
module Json = Ic_obs.Json
module Live = Ic_obs.Live
module Sim = Ic_sim.Simulator
module Policy = Ic_heuristics.Policy
module Dag = Ic_dag.Dag

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- trace buffer --- *)

let test_trace_emit_get () =
  let t = Trace.create () in
  check_int "fresh trace is empty" 0 (Trace.length t);
  Trace.emit t Trace.Task_alloc ~time:1.5 ~a:7 ~b:2;
  Trace.emit t Trace.Client_stall ~time:2.0 ~a:3 ~b:0;
  Trace.emit t Trace.Eligible_count ~time:2.5 ~a:11 ~b:0;
  check_int "three events" 3 (Trace.length t);
  let e0 = Trace.get t 0 in
  check "kind" true (e0.Trace.kind = Trace.Task_alloc);
  check "time" true (e0.Trace.time = 1.5);
  check_int "task payload" 7 e0.Trace.a;
  check_int "client payload" 2 e0.Trace.b;
  let e1 = Trace.get t 1 in
  check "stall kind" true (e1.Trace.kind = Trace.Client_stall);
  check_int "stall client" 3 e1.Trace.a;
  (match Trace.get t 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range get must raise");
  let seen = ref 0 in
  Trace.iter (fun _ -> incr seen) t;
  check_int "iter covers all" 3 !seen;
  check_int "to_array length" 3 (Array.length (Trace.to_array t))

let test_trace_growth () =
  (* push far past a tiny initial capacity; everything must survive the
     column doublings *)
  let t = Trace.create ~capacity:2 () in
  for i = 0 to 999 do
    Trace.emit t Trace.Frontier_push ~time:(float_of_int i) ~a:i ~b:0
  done;
  check_int "all recorded" 1000 (Trace.length t);
  for i = 0 to 999 do
    let e = Trace.get t i in
    if e.Trace.a <> i || e.Trace.time <> float_of_int i then
      Alcotest.fail (Printf.sprintf "event %d corrupted by growth" i)
  done

let test_trace_clear () =
  let t = Trace.create () in
  Trace.emit t Trace.Task_start ~time:0.0 ~a:0 ~b:0;
  Trace.clear t;
  check_int "cleared" 0 (Trace.length t);
  Trace.emit t Trace.Task_fail ~time:4.0 ~a:9 ~b:1;
  check_int "reusable after clear" 1 (Trace.length t);
  check "new event intact" true ((Trace.get t 0).Trace.a = 9)

let test_eligibility_timeline () =
  let t = Trace.create () in
  Trace.emit t Trace.Eligible_count ~time:0.0 ~a:1 ~b:0;
  Trace.emit t Trace.Task_alloc ~time:0.5 ~a:0 ~b:0;
  Trace.emit t Trace.Eligible_count ~time:0.5 ~a:0 ~b:0;
  Trace.emit t Trace.Eligible_count ~time:2.0 ~a:3 ~b:0;
  let tl = Trace.eligibility_timeline t in
  check_int "only Eligible_count events" 3 (Array.length tl);
  check "samples in order" true
    (tl = [| (0.0, 1); (0.5, 0); (2.0, 3) |])

let test_kind_names () =
  check_str "alloc" "task_alloc" (Trace.kind_name Trace.Task_alloc);
  check_str "eligible" "eligible_count" (Trace.kind_name Trace.Eligible_count);
  check_str "timeout" "timeout_fired" (Trace.kind_name Trace.Timeout_fired);
  check_str "retry" "retry_scheduled" (Trace.kind_name Trace.Retry_scheduled);
  check_str "spec" "speculative_launch"
    (Trace.kind_name Trace.Speculative_launch);
  check_str "cancel" "replica_cancelled"
    (Trace.kind_name Trace.Replica_cancelled);
  check_str "crash" "client_crash" (Trace.kind_name Trace.Client_crash);
  check_str "rejoin" "client_rejoin" (Trace.kind_name Trace.Client_rejoin)

(* --- metrics registry --- *)

let test_metrics_counter_gauge () =
  let l = Live.create () in
  let c = Live.counter l "tasks" in
  Live.incr c 1;
  Live.incr c 4;
  check_int "counter accumulates" 5 (Live.counter_value c);
  (* same name returns the same counter *)
  Live.incr (Live.counter l "tasks") 1;
  check_int "registry dedups by name" 6 (Live.counter_value c);
  let g = Live.gauge l "makespan" in
  Live.set g 12.5;
  check "gauge holds last value" true (Live.gauge_value g = 12.5);
  (* a name registered as a counter cannot be re-registered as a gauge *)
  match Live.gauge l "tasks" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cross-type re-registration must raise"

let test_metrics_histogram () =
  let l = Live.create () in
  let h = Live.histogram l "latency" in
  List.iter (Live.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  let s = Live.histogram_snapshot h in
  check_int "count" 5 s.Live.count;
  check "sum" true (Float.abs (s.Live.sum -. 106.0) < 1e-9);
  (* each value lands in the bucket whose bounds bracket it: bucket [i]
     holds [bucket_upper (i - 1) <= x < bucket_upper i] *)
  let bucket_of x =
    let rec go i =
      if i = Live.n_buckets - 1 || x < Live.bucket_upper i then i
      else go (i + 1)
    in
    go 0
  in
  List.iter
    (fun x ->
      check
        (Printf.sprintf "%g counted in its bucket" x)
        true
        (s.Live.counts.(bucket_of x) > 0))
    [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  check_int "bucket counts add up" 5 (Array.fold_left ( + ) 0 s.Live.counts);
  (* re-registration is the same histogram *)
  Live.observe (Live.histogram l "latency") 0.1;
  check_int "dedup by name" 6 (Live.histogram_snapshot h).Live.count

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_metrics_dumps () =
  let l = Live.create () in
  Live.incr (Live.counter l "sim.tasks_completed") 3;
  Live.set (Live.gauge l "sim.makespan") 7.25;
  Live.observe (Live.histogram l "sim.task_latency") 1.5;
  let text = Live.openmetrics ~process:false l in
  check "text mentions counter" true
    (contains_sub text "sim_tasks_completed_total 3");
  let json = Live.to_json l in
  match Json.parse json with
  | Error e -> Alcotest.fail ("metrics JSON invalid: " ^ e)
  | Ok doc ->
    check "counter round-trips" true
      (Option.bind (Json.member "counters" doc) (Json.member "sim.tasks_completed")
       |> Option.map (fun v -> Json.to_number v = Some 3.0)
       = Some true);
    check "gauge round-trips" true
      (Option.bind (Json.member "gauges" doc) (Json.member "sim.makespan")
       |> Option.map (fun v -> Json.to_number v = Some 7.25)
       = Some true);
    check "histogram section present" true
      (Option.bind (Json.member "histograms" doc) (Json.member "sim.task_latency")
      <> None)

(* names and values chosen to break naive JSON emission: quotes,
   backslashes, tabs, newlines and control bytes in names, and gauges
   with no JSON number (nan, +-inf) must all survive a
   Live.to_json -> Json.parse round trip *)
let test_metrics_hostile_names () =
  let hostile =
    [
      "mesh \"2x2\"";
      "back\\slash\\";
      "tab\there";
      "line\nbreak";
      "ctrl\001byte";
    ]
  in
  let l = Live.create () in
  List.iteri
    (fun i name -> Live.incr (Live.counter l name) (i + 1))
    hostile;
  Live.set (Live.gauge l "gauge \"g\"\n") 1.5;
  Live.set (Live.gauge l "p50 of nothing") nan;
  Live.set (Live.gauge l "inf") infinity;
  Live.set (Live.gauge l "-inf") neg_infinity;
  Live.observe (Live.histogram l "hist\t\"h\"") 0.5;
  match Json.parse (Live.to_json l) with
  | Error e -> Alcotest.fail ("hostile names broke metrics JSON: " ^ e)
  | Ok doc ->
    List.iteri
      (fun i name ->
        check
          (Printf.sprintf "counter %d round-trips" i)
          true
          (Option.bind (Json.member "counters" doc) (Json.member name)
           |> Option.map (fun v -> Json.to_number v = Some (float_of_int (i + 1)))
          = Some true))
      hostile;
    check "hostile gauge round-trips" true
      (Option.bind (Json.member "gauges" doc) (Json.member "gauge \"g\"\n")
       |> Option.map (fun v -> Json.to_number v = Some 1.5)
      = Some true);
    List.iter
      (fun name ->
        check (name ^ " gauge is null") true
          (Option.bind (Json.member "gauges" doc) (Json.member name)
          = Some Json.Null))
      [ "p50 of nothing"; "inf"; "-inf" ];
    check "hostile histogram round-trips" true
      (Option.bind (Json.member "histograms" doc) (Json.member "hist\t\"h\"")
      <> None)

(* any byte string is a valid instrument name as far as the JSON dump is
   concerned *)
let prop_metrics_arbitrary_names =
  QCheck2.Test.make ~name:"arbitrary names round-trip through to_json"
    ~count:200 ~print:String.escaped
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\127') (int_range 0 12))
    (fun name ->
      let l = Live.create () in
      Live.incr (Live.counter l name) 7;
      Live.set (Live.gauge l (name ^ "/g")) nan;
      match Json.parse (Live.to_json l) with
      | Error _ -> false
      | Ok doc ->
        Option.bind (Json.member "counters" doc) (Json.member name)
        = Some (Json.Number 7.0)
        && Option.bind (Json.member "gauges" doc) (Json.member (name ^ "/g"))
           = Some Json.Null)

let test_exporter_hostile_labels () =
  (* dag labels and process names flow into the chrome trace verbatim;
     quotes and newlines in them must not corrupt the document *)
  let g = Ic_families.Mesh.out_mesh 4 in
  let cfg = Sim.config ~n_clients:2 ~jitter:0.5 ~seed:7 () in
  let tr = Trace.create () in
  let _r = Sim.run ~sink:tr cfg Policy.fifo ~workload:Ic_sim.Workload.unit g in
  let label = "mesh \"2x2\"\nand\\more" in
  let json =
    Exporter.chrome_trace ~process_name:label
      ~label:(fun v -> Printf.sprintf "task \"%d\"\n" v)
      tr
  in
  match Json.parse json with
  | Error e -> Alcotest.fail ("hostile label broke chrome trace: " ^ e)
  | Ok (Json.Array events) ->
    check "hostile process name round-trips" true
      (List.exists
         (fun e ->
           Option.bind (Json.member "args" e) (Json.member "name")
           |> Fun.flip Option.bind Json.to_string
           = Some label)
         events)
  | Ok _ -> Alcotest.fail "chrome trace must be a JSON array"

(* --- JSON reader --- *)

let test_json_parse () =
  (match Json.parse {| {"a": [1, 2.5, true, null, "\u0078A"], "b": {}} |} with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match Json.member "a" doc with
    | Some (Json.Array [ n1; n2; b; nl; s ]) ->
      check "int" true (Json.to_number n1 = Some 1.0);
      check "float" true (Json.to_number n2 = Some 2.5);
      check "bool" true (b = Json.Bool true);
      check "null" true (nl = Json.Null);
      check "unicode escape" true (Json.to_string s = Some "xA")
    | _ -> Alcotest.fail "array shape");
    check "empty object" true (Json.member "b" doc = Some (Json.Object [])));
  check "rejects garbage" true
    (match Json.parse "[1, 2] trailing" with Error _ -> true | Ok _ -> false);
  check "rejects unterminated" true
    (match Json.parse "{\"a\": " with Error _ -> true | Ok _ -> false)

(* --- simulator wiring: chrome trace round-trip (acceptance) --- *)

let traced_mesh_run () =
  let g = Ic_families.Mesh.out_mesh 8 in
  let cfg = Sim.config ~n_clients:4 ~jitter:0.5 ~seed:42 () in
  let tr = Trace.create () in
  let r = Sim.run ~sink:tr cfg Policy.fifo ~workload:Ic_sim.Workload.unit g in
  (g, r, tr)

let test_chrome_trace_roundtrip () =
  let g, _r, tr = traced_mesh_run () in
  let json = Exporter.chrome_trace ~process_name:"test run" ~label:(Dag.label g) tr in
  match Json.parse json with
  | Error e -> Alcotest.fail ("chrome trace is not valid JSON: " ^ e)
  | Ok (Json.Array events) ->
    check "nonempty" true (events <> []);
    let phase e = Option.bind (Json.member "ph" e) Json.to_string in
    let name e = Option.bind (Json.member "name" e) Json.to_string in
    List.iter
      (fun e ->
        match e with
        | Json.Object _ -> ()
        | _ -> Alcotest.fail "every trace entry must be an object")
      events;
    (* one thread_name metadata record per client, plus the server's *)
    let thread_names =
      List.filter_map
        (fun e ->
          if name e = Some "thread_name" then
            Option.bind (Json.member "args" e) (Json.member "name")
            |> Fun.flip Option.bind Json.to_string
          else None)
        events
    in
    check "server track" true (List.mem "server" thread_names);
    List.iter
      (fun c ->
        check
          (Printf.sprintf "client %d track" c)
          true
          (List.mem (Printf.sprintf "client %d" c) thread_names))
      [ 0; 1; 2; 3 ];
    (* the eligibility counter track *)
    let counters =
      List.filter (fun e -> phase e = Some "C" && name e = Some "|ELIGIBLE|") events
    in
    check "counter events present" true (counters <> []);
    List.iter
      (fun e ->
        check "counter carries eligible arg" true
          (Option.bind (Json.member "args" e) (Json.member "eligible")
           |> Fun.flip Option.bind Json.to_number
          <> None))
      counters;
    (* task slices: complete events with nonnegative duration *)
    let slices = List.filter (fun e -> phase e = Some "X") events in
    check "task slices present" true (slices <> []);
    List.iter
      (fun e ->
        check "slice has ts" true
          (Option.bind (Json.member "ts" e) Json.to_number <> None);
        check "slice duration >= 0" true
          (match Option.bind (Json.member "dur" e) Json.to_number with
          | Some d -> d >= 0.0
          | None -> false))
      slices;
    (* every task in the dag appears as a slice on some client track *)
    check "one slice per task at least" true
      (List.length slices >= Dag.n_nodes g)
  | Ok _ -> Alcotest.fail "chrome trace must be a JSON array"

let test_trace_events_cover_run () =
  let g, r, tr = traced_mesh_run () in
  let count k =
    let n = ref 0 in
    Trace.iter (fun e -> if e.Trace.kind = k then incr n) tr;
    !n
  in
  check_int "one alloc per allocation" (List.length r.Sim.allocation_order)
    (count Trace.Task_alloc);
  check_int "one completion per task" (Dag.n_nodes g) (count Trace.Task_complete);
  check_int "one pop per node" (Dag.n_nodes g) (count Trace.Frontier_pop);
  check_int "one push per node" (Dag.n_nodes g) (count Trace.Frontier_push);
  check_int "stall events match result" r.Sim.stalls (count Trace.Client_stall);
  (* timestamps never decrease *)
  let last = ref neg_infinity in
  Trace.iter
    (fun e ->
      if e.Trace.time < !last then Alcotest.fail "time went backwards";
      last := e.Trace.time)
    tr

let test_determinism_byte_equal () =
  (* same seed: identical result records and byte-equal exports *)
  let run_once () =
    let g = Ic_families.Mesh.out_mesh 8 in
    let cfg = Sim.config ~n_clients:4 ~jitter:0.5 ~seed:2026 () in
    let tr = Trace.create () in
    let r = Sim.run ~sink:tr cfg Policy.lifo ~workload:Ic_sim.Workload.unit g in
    (r, Exporter.chrome_trace tr, Exporter.eligibility_csv tr)
  in
  let r1, j1, c1 = run_once () in
  let r2, j2, c2 = run_once () in
  check "identical results" true (r1 = r2);
  check_str "byte-equal chrome trace" j1 j2;
  check_str "byte-equal csv" c1 c2

let test_eligibility_csv () =
  let _g, _r, tr = traced_mesh_run () in
  let csv = Exporter.eligibility_csv tr in
  let lines = String.split_on_char '\n' (String.trim csv) in
  (match lines with
  | header :: rows ->
    check_str "header" "time,eligible" header;
    check_int "one row per sample"
      (Array.length (Trace.eligibility_timeline tr))
      (List.length rows);
    List.iter
      (fun row ->
        match String.split_on_char ',' row with
        | [ t; e ] ->
          check "numeric time" true (float_of_string_opt t <> None);
          check "integer count" true (int_of_string_opt e <> None)
        | _ -> Alcotest.fail ("malformed row: " ^ row))
      rows
  | [] -> Alcotest.fail "empty csv")

let test_fault_events_export () =
  (* a faulty run exports a valid chrome trace: instant markers for
     crashes/timeouts/speculation, lost slices closed at the crash, and
     byte-equal re-exports *)
  let faulty_run () =
    let g = Ic_families.Mesh.out_mesh 8 in
    let cfg =
      Sim.config ~n_clients:6 ~jitter:0.3 ~seed:31
        ~faults:
          (Ic_fault.Plan.make ~crash_rate:0.03 ~straggler_probability:0.3
             ~straggler_factor:8.0 ())
        ~recovery:
          (Ic_fault.Recovery.make ~timeout_factor:3.0 ~detection_latency:0.25
             ~backoff_base:0.1 ~backoff_jitter:0.5 ~speculation_factor:2.0 ())
        ()
    in
    let tr = Trace.create () in
    let r = Sim.run ~sink:tr cfg Policy.fifo ~workload:Ic_sim.Workload.unit g in
    (r, tr, Exporter.chrome_trace tr)
  in
  let r, tr, json = faulty_run () in
  check "faults fired" true (r.Sim.crashes > 0 || r.Sim.timeouts > 0);
  let count k =
    let n = ref 0 in
    Trace.iter (fun e -> if e.Trace.kind = k then incr n) tr;
    !n
  in
  check_int "crash events match result" r.Sim.crashes (count Trace.Client_crash);
  check_int "timeout events match result" r.Sim.timeouts
    (count Trace.Timeout_fired);
  check_int "speculation events match result" r.Sim.speculations
    (count Trace.Speculative_launch);
  check_int "retry events match result" r.Sim.retries
    (count Trace.Retry_scheduled);
  (match Json.parse json with
  | Error e -> Alcotest.fail ("faulty chrome trace invalid: " ^ e)
  | Ok (Json.Array events) ->
    let phase e = Option.bind (Json.member "ph" e) Json.to_string in
    let name e = Option.bind (Json.member "name" e) Json.to_string in
    let instants = List.filter (fun e -> phase e = Some "i") events in
    check "instant markers present" true (instants <> []);
    (if r.Sim.crashes > 0 then
       check "crash marker present" true
         (List.exists (fun e -> name e = Some "crash") instants));
    if r.Sim.timeouts > 0 then
      check "timeout marker present" true
        (List.exists (fun e -> name e = Some "timeout") instants)
  | Ok _ -> Alcotest.fail "faulty chrome trace must be a JSON array");
  let _, _, json2 = faulty_run () in
  check_str "byte-equal faulty export" json json2

let test_metrics_from_simulation () =
  let g = Ic_families.Mesh.out_mesh 8 in
  let cfg = Sim.config ~n_clients:4 ~jitter:0.5 ~seed:9 () in
  let l = Live.create () in
  let r = Sim.run ~live:l cfg Policy.fifo ~workload:Ic_sim.Workload.unit g in
  check_int "completions counted" (Dag.n_nodes g)
    (Live.counter_value (Live.counter l "sim.tasks_completed"));
  check_int "stalls counted" r.Sim.stalls
    (Live.counter_value (Live.counter l "sim.stalls"));
  check "makespan gauge" true
    (Live.gauge_value (Live.gauge l "sim.makespan") = r.Sim.makespan);
  check_int "latency histogram count" (Dag.n_nodes g)
    (Live.histogram_snapshot (Live.histogram l "sim.task_latency")).Live.count;
  (* a faulty seeded run dumps byte-identical JSON every time *)
  let faulty_json () =
    let cfg =
      Sim.config ~n_clients:6 ~jitter:0.3 ~seed:31
        ~faults:
          (Ic_fault.Plan.make ~crash_rate:0.03 ~straggler_probability:0.3
             ~straggler_factor:8.0 ~fail_probability:0.1 ())
        ~recovery:
          (Ic_fault.Recovery.make ~timeout_factor:3.0 ~detection_latency:0.25
             ~backoff_base:0.1 ~backoff_jitter:0.5 ~speculation_factor:2.0 ())
        ()
    in
    let l = Live.create () in
    let r = Sim.run ~live:l cfg Policy.fifo ~workload:Ic_sim.Workload.unit g in
    check "faults fired" true (r.Sim.crashes > 0 || r.Sim.retries > 0);
    Live.to_json l
  in
  check_str "faulty run: byte-identical JSON" (faulty_json ()) (faulty_json ())

(* the faulty seeded run's metrics artifact, pinned to a recorded MD5
   of its [Live.to_json] *)
let test_simulation_metrics_pinned () =
  let g = Ic_families.Mesh.out_mesh 8 in
  let cfg =
    Sim.config ~n_clients:6 ~jitter:0.3 ~seed:31
      ~faults:
        (Ic_fault.Plan.make ~crash_rate:0.03 ~straggler_probability:0.3
           ~straggler_factor:8.0 ~fail_probability:0.1 ())
      ~recovery:
        (Ic_fault.Recovery.make ~timeout_factor:3.0 ~detection_latency:0.25
           ~backoff_base:0.1 ~backoff_jitter:0.5 ~speculation_factor:2.0 ())
      ()
  in
  let l = Live.create () in
  let _ = Sim.run ~live:l cfg Policy.fifo ~workload:Ic_sim.Workload.unit g in
  check_str "faulty run: pinned JSON digest"
    "18f913c434cb61a83bef705f112f914d"
    (Digest.to_hex (Digest.string (Live.to_json l)))

let test_engine_sink () =
  let g = Dag.make_exn ~n:4 ~arcs:[ (0, 1); (0, 2); (1, 3); (2, 3) ] () in
  let compute v parents = if v = 0 then 1 else Array.fold_left ( + ) v parents in
  let tr = Trace.create () in
  let values = Ic_compute.Engine.execute ~sink:tr { Ic_compute.Engine.dag = g; compute } in
  Alcotest.(check (array int)) "values unchanged by tracing" [| 1; 2; 3; 8 |] values;
  let count k =
    let n = ref 0 in
    Trace.iter (fun e -> if e.Trace.kind = k then incr n) tr;
    !n
  in
  check_int "start per node" 4 (count Trace.Task_start);
  check_int "complete per node" 4 (count Trace.Task_complete);
  check_int "pop per node" 4 (count Trace.Frontier_pop);
  check_int "push per node" 4 (count Trace.Frontier_push);
  (* the engine's trace exports too *)
  match Ic_obs.Json.parse (Exporter.chrome_trace tr) with
  | Ok (Json.Array _) -> ()
  | Ok _ -> Alcotest.fail "engine trace must render an array"
  | Error e -> Alcotest.fail ("engine trace invalid: " ^ e)

(* MD5 of a trace's event sequence: kind, exact time, both payloads *)
let trace_digest tr =
  let b = Buffer.create 4096 in
  Trace.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%s %h %d %d\n" (Trace.kind_name e.Trace.kind)
           e.Trace.time e.Trace.a e.Trace.b))
    tr;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the engine's event order, pinned with and without a schedule *)
let test_engine_trace_pinned () =
  let g = Ic_families.Mesh.out_mesh 6 in
  let engine =
    { Ic_compute.Engine.dag = g; compute = (fun v ps -> Array.fold_left ( + ) v ps) }
  in
  let digest schedule =
    let tr = Trace.create () in
    ignore (Ic_compute.Engine.execute ?schedule ~sink:tr engine);
    (* the source push and first count, then per node a pop, a start, a
       completion, a count, and a push for every non-source *)
    check_int "events per node" ((5 * Dag.n_nodes g) + 1) (Trace.length tr);
    trace_digest tr
  in
  check_str "engine, frontier order: pinned trace digest"
    "9f0c817b19896f4fdc69e9ad47647372" (digest None);
  check_str "engine, schedule order: pinned trace digest"
    "c3217bae6939d6a5e4a6be34e9673f30"
    (digest (Some (Ic_families.Mesh.out_schedule 6)))

(* a faulty seeded simulation's event order, pinned: crashes, timeouts,
   retries and speculative replicas all reach the trace *)
let test_simulation_trace_pinned () =
  let g = Ic_families.Mesh.out_mesh 8 in
  let cfg =
    Sim.config ~n_clients:6 ~jitter:0.3 ~seed:31
      ~faults:
        (Ic_fault.Plan.make ~crash_rate:0.03 ~straggler_probability:0.3
           ~straggler_factor:8.0 ~fail_probability:0.1 ())
      ~recovery:
        (Ic_fault.Recovery.make ~timeout_factor:3.0 ~detection_latency:0.25
           ~backoff_base:0.1 ~backoff_jitter:0.5 ~speculation_factor:2.0 ())
      ()
  in
  let tr = Trace.create () in
  let r = Sim.run ~sink:tr cfg Policy.fifo ~workload:Ic_sim.Workload.unit g in
  check "timeouts fired" true (r.Sim.timeouts > 0);
  check "speculation fired" true (r.Sim.speculations > 0);
  check_str "faulty run: pinned trace digest" "60cfbc9143e9e301a479373c8af9d832" (trace_digest tr)

let test_sink_does_not_change_results () =
  let g = Ic_families.Mesh.out_mesh 8 in
  let cfg = Sim.config ~n_clients:4 ~jitter:0.5 ~seed:5 () in
  let bare = Sim.run cfg Policy.fifo ~workload:Ic_sim.Workload.unit g in
  let traced =
    Sim.run ~sink:(Trace.create ()) ~live:(Live.create ()) cfg Policy.fifo
      ~workload:Ic_sim.Workload.unit g
  in
  check "observability is transparent" true (bare = traced)

(* --- live registry --- *)

let test_live_counter () =
  let l = Live.create () in
  let c = Live.counter l "live.tasks" in
  Live.incr c 1;
  Live.incr c 2;
  Live.incr c 3;
  check_int "increments accumulate in the cell" 6 (Live.counter_value c);
  (* registration dedups by name *)
  Live.incr (Live.counter l "live.tasks") 1;
  check_int "same name, same counter" 7 (Live.counter_value c);
  (* cross-kind re-registration is an error *)
  match Live.gauge l "live.tasks" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "counter name re-registered as gauge must raise"

let test_live_gauge_histogram () =
  let l = Live.create () in
  let g = Live.gauge l "live.depth" in
  Live.set g 3.0;
  Live.set g 7.5;
  check "gauge holds last write" true (Live.gauge_value g = 7.5);
  let h = Live.histogram l "live.latency" in
  check_int "fresh histogram is empty" 0 (Live.histogram_snapshot h).Live.count;
  List.iter (Live.observe h) [ 0.001; 0.001; 0.001; 0.1; 10.0 ];
  let s = Live.histogram_snapshot h in
  check_int "snapshot count" 5 s.Live.count;
  check "snapshot sum (ns fixed point)" true
    (Float.abs (s.Live.sum -. 10.103) < 1e-6);
  (* bucket upper bounds are increasing and end at the saturation slot *)
  let ok = ref true in
  for i = 1 to Live.n_buckets - 1 do
    if not (Live.bucket_upper i > Live.bucket_upper (i - 1)) then ok := false
  done;
  check "bucket bounds strictly increase" true !ok

let test_live_openmetrics () =
  let l = Live.create () in
  Live.incr (Live.counter l "served.leases") 5;
  Live.set (Live.gauge l "served.frontier_depth") 3.0;
  Live.observe (Live.histogram l "served.grant_s") 0.004;
  let page = Live.openmetrics l in
  check "dots map to underscores" true
    (contains_sub page "# TYPE served_leases counter");
  check "counter renders name_total" true
    (contains_sub page "served_leases_total 5");
  check "gauge renders bare" true
    (contains_sub page "served_frontier_depth 3");
  check "histogram renders +Inf bucket" true
    (contains_sub page "served_grant_s_bucket{le=\"+Inf\"} 1");
  check "histogram renders sum" true (contains_sub page "served_grant_s_sum");
  check "histogram renders count" true
    (contains_sub page "served_grant_s_count 1");
  check "process gauges on by default" true
    (contains_sub page "process_resident_memory_bytes"
    && contains_sub page "process_uptime_seconds"
    && contains_sub page "ocaml_gc_minor_collections_total");
  check "terminated by # EOF" true
    (let tail = "# EOF\n" in
     String.length page >= String.length tail
     && String.sub page
          (String.length page - String.length tail)
          (String.length tail)
        = tail);
  let bare = Live.openmetrics ~process:false l in
  check "process block is optional" true
    (not (contains_sub bare "process_resident_memory_bytes"));
  (* every non-comment line is "name value": the shape the scrape smoke
     job validates *)
  String.split_on_char '\n' (String.trim bare)
  |> List.iter (fun line ->
         if String.length line > 0 && line.[0] <> '#' then
           match String.split_on_char ' ' line with
           | [ name; value ] ->
             check ("numeric value in: " ^ line) true
               (float_of_string_opt value <> None);
             check ("sane metric name in: " ^ line) true
               (String.for_all
                  (fun ch ->
                    (ch >= 'a' && ch <= 'z')
                    || (ch >= 'A' && ch <= 'Z')
                    || (ch >= '0' && ch <= '9')
                    || ch = '_' || ch = '{' || ch = '}' || ch = '"'
                    || ch = '=' || ch = '+' || ch = '.')
                  name)
           | _ -> Alcotest.fail ("malformed exposition line: " ^ line))

let test_live_to_json () =
  let l = Live.create () in
  Live.incr (Live.counter l "live.c") 3;
  Live.set (Live.gauge l "live.g") 2.5;
  Live.observe (Live.histogram l "live.h") 0.5;
  match Json.parse (Live.to_json l) with
  | Error e -> Alcotest.fail ("live JSON invalid: " ^ e)
  | Ok doc ->
    check "counter round-trips" true
      (Option.bind (Json.member "counters" doc) (Json.member "live.c")
       |> Option.map (fun v -> Json.to_number v = Some 3.0)
      = Some true);
    check "gauge round-trips" true
      (Option.bind (Json.member "gauges" doc) (Json.member "live.g")
       |> Option.map (fun v -> Json.to_number v = Some 2.5)
      = Some true);
    check "histogram round-trips" true
      (Option.bind (Json.member "histograms" doc) (Json.member "live.h")
      <> None)

(* read-backed instruments render exactly like written ones: the same
   OpenMetrics lines, the same sorted JSON, null for a non-finite value,
   escaped hostile names *)
let test_live_readers () =
  let l = Live.create () in
  let leases = ref 5 in
  Live.counter_reader l "served.leases" (fun () -> !leases);
  let depth = ref 3.0 in
  Live.gauge_reader l "served.frontier_depth" (fun () -> !depth);
  let page () = Live.openmetrics ~process:false l in
  check "reader counter renders name_total" true
    (contains_sub (page ()) "served_leases_total 5");
  check "reader gauge renders bare" true
    (contains_sub (page ()) "served_frontier_depth 3");
  leases := 9;
  depth := 0.0;
  check "a read calls the reader" true
    (contains_sub (page ()) "served_leases_total 9"
    && contains_sub (page ()) "served_frontier_depth 0");
  (* the handles of a read-backed name read through the reader *)
  let c = Live.counter l "served.leases" in
  check_int "counter_value" 9 (Live.counter_value c);
  check "gauge_value" true
    (Live.gauge_value (Live.gauge l "served.frontier_depth") = 0.0);
  (* cells and readers add up; a second reader is summed with the first *)
  Live.incr c 2;
  Live.counter_reader l "served.leases" (fun () -> 100);
  check_int "cells + both readers" 111 (Live.counter_value c);
  (* a gauge holds its last write, reader or value *)
  Live.gauge_reader l "served.frontier_depth" (fun () -> 7.0);
  check "second gauge reader replaces the first" true
    (Live.gauge_value (Live.gauge l "served.frontier_depth") = 7.0);
  Live.set (Live.gauge l "served.frontier_depth") 1.5;
  check "set replaces the reader" true
    (Live.gauge_value (Live.gauge l "served.frontier_depth") = 1.5);
  (match Live.gauge_reader l "served.leases" (fun () -> 0.0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "a counter name accepted a gauge reader");
  (* the same JSON as cells holding the same values *)
  let twin = Live.create () in
  Live.incr (Live.counter twin "served.leases") 111;
  Live.set (Live.gauge twin "served.frontier_depth") 1.5;
  check_str "reader JSON = cell JSON" (Live.to_json twin) (Live.to_json l);
  let strip_uptime page =
    String.split_on_char '\n' page
    |> List.filter (fun ln -> not (contains_sub ln "uptime"))
  in
  check "reader exposition = cell exposition" true
    (strip_uptime (Live.openmetrics ~process:false twin)
    = strip_uptime (Live.openmetrics ~process:false l))

let test_live_readers_hostile () =
  let l = Live.create () in
  let hostile = [ "mesh \"2x2\""; "back\\slash\\"; "line\nbreak" ] in
  List.iteri
    (fun i name -> Live.counter_reader l name (fun () -> i + 1))
    hostile;
  Live.gauge_reader l "p50 of nothing" (fun () -> nan);
  Live.gauge_reader l "inf" (fun () -> infinity);
  Live.gauge_reader l "gauge \"g\"\n" (fun () -> 2.5);
  match Json.parse (Live.to_json l) with
  | Error e -> Alcotest.fail ("reader-backed JSON invalid: " ^ e)
  | Ok doc ->
    let find section name =
      Option.bind (Json.member section doc) (Json.member name)
    in
    List.iteri
      (fun i name ->
        check
          (Printf.sprintf "reader counter %d round-trips" i)
          true
          (find "counters" name = Some (Json.Number (float_of_int (i + 1)))))
      hostile;
    check "hostile reader gauge round-trips" true
      (find "gauges" "gauge \"g\"\n" = Some (Json.Number 2.5));
    List.iter
      (fun name ->
        check (name ^ " reader gauge is null") true
          (find "gauges" name = Some Json.Null))
      [ "p50 of nothing"; "inf" ];
    let page = Live.openmetrics ~process:false l in
    check "names sanitized in the exposition" true
      (contains_sub page "mesh__2x2__total 1"
      && contains_sub page "line_break_total 3")

(* --- flight recorder --- *)

let with_ring f =
  let path = Filename.temp_file "ic_test_flight" ".ring" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let recorder ?slots path =
  match Trace.recorder ?slots path with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let load path =
  match Trace.load path with Ok d -> d | Error e -> Alcotest.fail e

let seqs d = Array.to_list (Array.map (fun f -> f.Trace.seq) d.Trace.events)

let test_flight_roundtrip () =
  with_ring (fun path ->
      let fl = recorder ~slots:16 path in
      check_int "fresh ring is empty" 0 (Trace.length fl);
      Trace.emit fl Trace.Task_alloc ~time:1.0 ~a:7 ~b:2;
      Trace.emit fl Trace.Task_complete ~time:2.0 ~a:7 ~b:2;
      Trace.emit fl Trace.Frontier_depth ~time:3.0 ~a:1 ~b:11;
      Trace.emit fl Trace.Inflight ~time:4.0 ~a:5 ~b:0;
      (* reads on the recorder decode its mapped frames *)
      check_int "recorder length" 4 (Trace.length fl);
      check "recorder get" true
        ((Trace.get fl 2).Trace.kind = Trace.Frontier_depth
        && (Trace.get fl 2).Trace.b = 11);
      (match Trace.get fl 4 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "out-of-range get on a recorder must raise");
      let d = load path in
      check_int "geometry recovered" 16 d.Trace.d_slots;
      check_int "all frames valid" 4 d.Trace.d_valid;
      check "events in sequence order" true (seqs d = [ 1; 2; 3; 4 ]);
      let e0 = d.Trace.events.(0).Trace.event in
      check "payload survives" true
        (e0.Trace.kind = Trace.Task_alloc
        && e0.Trace.time = 1.0 && e0.Trace.a = 7 && e0.Trace.b = 2);
      check "loaded = read through the recorder" true
        (Array.map (fun f -> f.Trace.event) d.Trace.events
        = Trace.to_array fl);
      (* the dump replays into a trace ready for the exporter *)
      let tr = Trace.of_dump d in
      check_int "of_dump replays everything" 4 (Trace.length tr);
      check "of_dump keeps order" true
        ((Trace.get tr 0).Trace.kind = Trace.Task_alloc);
      match Json.parse (Exporter.chrome_trace tr) with
      | Ok (Json.Array _) -> ()
      | Ok _ -> Alcotest.fail "blackbox trace must render an array"
      | Error e -> Alcotest.fail ("blackbox trace invalid: " ^ e))

let test_flight_wrap () =
  with_ring (fun path ->
      let fl = recorder ~slots:16 path in
      for i = 1 to 40 do
        Trace.emit fl Trace.Frontier_pop ~time:(float_of_int i) ~a:i ~b:0
      done;
      check_int "recorder keeps [slots] events" 16 (Trace.length fl);
      check_int "recorder reads oldest first" 25 (Trace.get fl 0).Trace.a;
      let d = load path in
      check_int "ring keeps the last [slots] events" 16 d.Trace.d_valid;
      check "dense tail, oldest first" true
        (seqs d = List.init 16 (fun i -> 25 + i)))

let test_flight_torn_slot () =
  with_ring (fun path ->
      let fl = recorder ~slots:16 path in
      for i = 1 to 5 do
        Trace.emit fl Trace.Task_start ~time:(float_of_int i) ~a:i ~b:0
      done;
      (* tear frame 3 (slot 2): flip one payload byte so its CRC fails.
         header is 16 bytes, 40 per slot *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd (16 + (2 * 40) + 20) Unix.SEEK_SET);
      ignore (Unix.write fd (Bytes.make 1 '\xFF') 0 1);
      Unix.close fd;
      let d = load path in
      check_int "torn frame dropped, rest kept" 4 d.Trace.d_valid;
      check "the torn sequence number is the one missing" true
        (seqs d = [ 1; 2; 4; 5 ]))

let test_flight_reopen_continues () =
  with_ring (fun path ->
      let fl = recorder ~slots:16 path in
      for i = 1 to 3 do
        Trace.emit fl Trace.Task_alloc ~time:(float_of_int i) ~a:i ~b:0
      done;
      (* reopening with matching geometry continues the numbering — the
         --recover path appends to the same black box it crashed with *)
      let fl = recorder ~slots:16 path in
      check_int "pre-crash frames kept" 3 (Trace.length fl);
      Trace.emit fl Trace.Task_complete ~time:9.0 ~a:99 ~b:0;
      let d = load path in
      check_int "pre-crash frames plus the new one" 4 d.Trace.d_valid;
      check "new frame numbered after them" true (seqs d = [ 1; 2; 3; 4 ]);
      check_int "new frame last" 99 d.Trace.events.(3).Trace.event.Trace.a;
      (* a different geometry is a different ring: wiped, not misread *)
      let fl = recorder ~slots:32 path in
      check_int "geometry change resets the ring" 0 (Trace.length fl);
      Trace.emit fl Trace.Task_alloc ~time:0.0 ~a:0 ~b:0;
      check "numbering restarts" true (seqs (load path) = [ 1 ]))

(* a CRC-valid frame the writer could never have numbered: reopening
   used to continue from [max_int + 1] (negative) and the third emit
   indexed before the mapping *)
let test_flight_unreachable_seq () =
  with_ring (fun path ->
      let fl = recorder ~slots:16 path in
      for i = 1 to 3 do
        Trace.emit fl Trace.Task_alloc ~time:(float_of_int i) ~a:i ~b:0
      done;
      let frame = Bytes.make 40 '\000' in
      Bytes.set_int64_le frame 0 (Int64.of_int max_int);
      Bytes.set_int64_le frame 8 (Int64.bits_of_float 1.0);
      Bytes.set_int32_le frame 36
        (Int32.of_int (Ic_obs.Crc32.digest frame 0 36));
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      ignore (Unix.lseek fd 16 Unix.SEEK_SET);
      ignore (Unix.write fd frame 0 40);
      Unix.close fd;
      check "load drops the frame" true (seqs (load path) = [ 2; 3 ]);
      let fl = recorder ~slots:16 path in
      for i = 4 to 6 do
        Trace.emit fl Trace.Task_complete ~time:(float_of_int i) ~a:i ~b:0
      done;
      check "numbering continues after the valid frames" true
        (seqs (load path) = [ 2; 3; 4; 5; 6 ]))

(* the on-disk format pinned byte for byte: the round-trip tests encode
   and decode with the same code, so only fixed bytes catch a symmetric
   format change. The CRCs are zlib's crc32 of each frame's first 36
   bytes *)
let test_flight_golden_bytes () =
  with_ring (fun path ->
      let fl = recorder ~slots:16 path in
      Trace.emit fl Trace.Task_alloc ~time:1.5 ~a:7 ~b:2;
      Trace.emit fl Trace.Frontier_depth ~time:(-0.25) ~a:3 ~b:(-1);
      let want = Bytes.make (16 + (16 * 40)) '\000' in
      Bytes.blit_string "ICFLT001" 0 want 0 8;
      Bytes.set_int32_le want 8 16l;
      Bytes.set_int32_le want 12 40l;
      let frame off ~seq ~time ~a ~b ~kind ~crc =
        Bytes.set_int64_le want off seq;
        Bytes.set_int64_le want (off + 8) (Int64.bits_of_float time);
        Bytes.set_int64_le want (off + 16) a;
        Bytes.set_int64_le want (off + 24) b;
        Bytes.set_int32_le want (off + 32) kind;
        Bytes.set_int32_le want (off + 36) crc
      in
      frame 16 ~seq:1L ~time:1.5 ~a:7L ~b:2L ~kind:0l ~crc:0x7F087ADCl;
      frame 56 ~seq:2L ~time:(-0.25) ~a:3L ~b:(-1L) ~kind:15l ~crc:0xFCC554D4l;
      let hex s =
        String.concat " "
          (List.init (String.length s) (fun i ->
               Printf.sprintf "%02x" (Char.code s.[i])))
      in
      check_str "ring file bytes"
        (hex (Bytes.to_string want))
        (hex (In_channel.with_open_bin path In_channel.input_all)))

(* the checksum both on-disk formats frame with (flight ring, serving
   journal) is the standard CRC-32: the zlib/PNG check value of
   "123456789", and a digest of a sub-range equals one of a copy *)
let test_crc32_check_value () =
  let b = Bytes.of_string "xx123456789yy" in
  check_int "check value" 0xCBF43926 (Ic_obs.Crc32.digest b 2 9);
  check_int "sub-range" (Ic_obs.Crc32.digest (Bytes.sub b 2 9) 0 9)
    (Ic_obs.Crc32.digest b 2 9);
  check_int "empty range" 0 (Ic_obs.Crc32.digest b 5 0)

let test_flight_rejects_foreign () =
  with_ring (fun path ->
      let oc = open_out_bin path in
      output_string oc "this is not a flight recorder at all";
      close_out oc;
      match Trace.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "foreign file must not load")

(* the ring decoder fed arbitrary bytes, a valid header over frames
   with valid CRCs around random fields (any seq, any kind integer), and
   genuine rings with byte flips and truncations: [load] returns instead
   of raising and keeps only frames that were written; reopening the
   file as a 16-slot recorder and emitting 2 x slots events never raises
   and leaves exactly the last 16 of them *)
type ring_input =
  | File of string
  | Mangled of int * (int * int) list * int option

let fuzz_kinds =
  Trace.[| Task_alloc; Task_complete; Timeout_fired; Frontier_depth |]

let fuzz_event i =
  {
    Trace.kind = fuzz_kinds.(i mod 4);
    time = float_of_int i *. 0.5;
    a = i;
    b = -i;
  }

let prop_ring_decoder_total =
  let open QCheck2.Gen in
  let header =
    let h = Bytes.make 16 '\000' in
    Bytes.blit_string "ICFLT001" 0 h 0 8;
    Bytes.set_int32_le h 8 16l;
    Bytes.set_int32_le h 12 40l;
    Bytes.to_string h
  in
  let frame (seq, time, a, b, kind) =
    let f = Bytes.create 40 in
    Bytes.set_int64_le f 0 seq;
    Bytes.set_int64_le f 8 time;
    Bytes.set_int64_le f 16 a;
    Bytes.set_int64_le f 24 b;
    Bytes.set_int32_le f 32 (Int32.of_int kind);
    Bytes.set_int32_le f 36 (Int32.of_int (Ic_obs.Crc32.digest f 0 36));
    Bytes.to_string f
  in
  let seq =
    oneof
      [
        int64;
        map Int64.of_int (int_range (-2) 40);
        return (Int64.of_int max_int);
      ]
  in
  let gen =
    oneof
      [
        map (fun s -> File s) (string_size (int_bound 700));
        map
          (fun fs -> File (header ^ String.concat "" (List.map frame fs)))
          (list_size (return 16)
             (tup5 seq int64 int64 int64 (int_range (-1) 20)));
        map
          (fun (k, flips, cut) -> Mangled (k, flips, cut))
          (triple (int_bound 40)
             (list_size (int_bound 6)
                (pair (int_bound 10_000) (int_range 1 255)))
             (opt (int_bound 700)));
      ]
  in
  let print = function
    | File s -> Printf.sprintf "file %S" s
    | Mangled (k, flips, cut) ->
      Printf.sprintf "ring of %d events, flips [%s], cut %s" k
        (String.concat "; "
           (List.map (fun (p, x) -> Printf.sprintf "%d^%d" p x) flips))
        (match cut with Some n -> string_of_int n | None -> "none")
  in
  QCheck2.Test.make ~name:"ring decoder never raises" ~count:300 ~print gen
    (fun input ->
      with_ring (fun path ->
          (* in place: ext4 flushes an O_TRUNC rewrite when its last
             descriptor closes, and reading the file back then took
             10-20 ms per case *)
          let write s =
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
            ignore (Unix.write_substring fd s 0 (String.length s));
            Unix.ftruncate fd (String.length s);
            Unix.close fd
          in
          let written =
            match input with
            | File s ->
              write s;
              None
            | Mangled (k, flips, cut) ->
              let fl = recorder ~slots:16 path in
              for i = 1 to k do
                let e = fuzz_event i in
                Trace.emit fl e.kind ~time:e.time ~a:e.a ~b:e.b
              done;
              let b =
                Bytes.of_string
                  (In_channel.with_open_bin path In_channel.input_all)
              in
              List.iter
                (fun (p, x) ->
                  let p = p mod Bytes.length b in
                  Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor x)))
                flips;
              let n = Option.value cut ~default:(Bytes.length b) in
              write (Bytes.sub_string b 0 (min n (Bytes.length b)));
              Some k
          in
          let only_written =
            match (Trace.load path, written) with
            | Error _, _ | Ok _, None -> true
            | Ok d, Some k ->
              Array.for_all
                (fun f ->
                  f.Trace.seq <= k && f.Trace.event = fuzz_event f.Trace.seq)
                d.Trace.events
          in
          let fl = recorder ~slots:16 path in
          for i = 101 to 132 do
            let e = fuzz_event i in
            Trace.emit fl e.kind ~time:e.time ~a:e.a ~b:e.b
          done;
          only_written
          && Array.map (fun f -> f.Trace.event) (load path).Trace.events
             = Array.init 16 (fun i -> fuzz_event (117 + i))))

(* --- properties --- *)

let prop_eligibility_timeline =
  (* across mesh sizes, seeds, client counts and every baseline policy:
     the eligibility curve of a completed run has non-decreasing
     timestamps, never-negative counts, and ends at 0 (a fault-free run
     drains the whole eligible set) *)
  QCheck2.Test.make ~name:"eligibility timeline is a sane curve" ~count:60
    QCheck2.Gen.(
      quad (int_range 2 8) (int_bound 10_000) (int_range 1 4)
        (int_bound (List.length Policy.baselines - 1)))
    (fun (side, seed, n_clients, pol) ->
      let g = Ic_families.Mesh.out_mesh side in
      let policy = List.nth Policy.baselines pol in
      let cfg = Sim.config ~n_clients ~jitter:0.5 ~seed () in
      let tr = Trace.create () in
      let r = Sim.run ~sink:tr cfg policy ~workload:Ic_sim.Workload.unit g in
      let tl = Trace.eligibility_timeline tr in
      let ok =
        ref
          (List.length r.Sim.completion_order = Dag.n_nodes g
          && Array.length tl > 0)
      in
      let last_t = ref neg_infinity in
      Array.iter
        (fun (t, c) ->
          if t < !last_t then ok := false;
          last_t := t;
          if c < 0 then ok := false)
        tl;
      (match tl.(Array.length tl - 1) with
      | _, 0 -> ()
      | _, _ -> ok := false);
      !ok)

let () =
  Alcotest.run "ic_obs"
    [
      ( "trace buffer",
        [
          Alcotest.test_case "emit and get" `Quick test_trace_emit_get;
          Alcotest.test_case "growth" `Quick test_trace_growth;
          Alcotest.test_case "clear" `Quick test_trace_clear;
          Alcotest.test_case "eligibility timeline" `Quick test_eligibility_timeline;
          Alcotest.test_case "kind names" `Quick test_kind_names;
        ] );
      ( "live registry",
        [
          Alcotest.test_case "counters: one cell per name" `Quick
            test_live_counter;
          Alcotest.test_case "gauges and histograms" `Quick
            test_live_gauge_histogram;
          Alcotest.test_case "openmetrics exposition" `Quick
            test_live_openmetrics;
          Alcotest.test_case "json snapshot" `Quick test_live_to_json;
          Alcotest.test_case "read-backed instruments render like cells"
            `Quick test_live_readers;
          Alcotest.test_case "read-backed: hostile names, non-finite values"
            `Quick test_live_readers_hostile;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "record, load, replay" `Quick
            test_flight_roundtrip;
          Alcotest.test_case "ring wraps to the newest tail" `Quick
            test_flight_wrap;
          Alcotest.test_case "torn slot fails its CRC" `Quick
            test_flight_torn_slot;
          Alcotest.test_case "reopen continues the sequence" `Quick
            test_flight_reopen_continues;
          Alcotest.test_case "foreign file rejected" `Quick
            test_flight_rejects_foreign;
          Alcotest.test_case "CRC-32 check value" `Quick test_crc32_check_value;
          Alcotest.test_case "on-disk bytes are pinned" `Quick
            test_flight_golden_bytes;
          Alcotest.test_case "unreachable sequence number is dropped" `Quick
            test_flight_unreachable_seq;
          QCheck_alcotest.to_alcotest prop_ring_decoder_total;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counter_gauge;
          Alcotest.test_case "histograms" `Quick test_metrics_histogram;
          Alcotest.test_case "text and json dumps" `Quick test_metrics_dumps;
          Alcotest.test_case "hostile names round-trip" `Quick
            test_metrics_hostile_names;
          QCheck_alcotest.to_alcotest prop_metrics_arbitrary_names;
        ] );
      ( "json reader",
        [ Alcotest.test_case "parse" `Quick test_json_parse ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace round-trip" `Quick
            test_chrome_trace_roundtrip;
          Alcotest.test_case "events cover the run" `Quick test_trace_events_cover_run;
          Alcotest.test_case "deterministic byte-equal exports" `Quick
            test_determinism_byte_equal;
          Alcotest.test_case "eligibility csv" `Quick test_eligibility_csv;
          Alcotest.test_case "fault events export" `Quick
            test_fault_events_export;
          Alcotest.test_case "hostile labels round-trip" `Quick
            test_exporter_hostile_labels;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "simulator metrics" `Quick test_metrics_from_simulation;
          Alcotest.test_case "simulator metrics match pinned digest" `Quick
            test_simulation_metrics_pinned;
          Alcotest.test_case "engine sink" `Quick test_engine_sink;
          Alcotest.test_case "engine trace matches pinned digest" `Quick
            test_engine_trace_pinned;
          Alcotest.test_case "simulator trace matches pinned digest" `Quick
            test_simulation_trace_pinned;
          Alcotest.test_case "sink transparency" `Quick
            test_sink_does_not_change_results;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_eligibility_timeline ] );
    ]
