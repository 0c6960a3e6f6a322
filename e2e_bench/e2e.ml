(* The shared harness of the end-to-end benchmark: clocks and /proc
   readers, medians and quartiles, the bench-side span recorder, the
   metric catalogue and its JSON, the timed run loop, and the --agree
   comparison of two sets of runs.

   Everything here measures the program from outside: spans wrap calls
   into the layers' public functions, CPU comes from the kernel's
   per-thread and per-process accounting, and counts come from the
   results those functions already return. *)

module Json = Ic_obs.Json

let now = Ic_prof.Monotonic.now
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------ statistics *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile by the method of Python's
   [statistics.quantiles(xs, n=4)] (the default 'exclusive' one), so the
   spreads printed here are the ones the acceptance check computes. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (median xs, median xs)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* interquartile distance as a share of the median *)
let spread xs =
  let q1, q3 = quartiles xs in
  ratio (q3 -. q1) (Float.abs (median xs))

(* -------------------------------------------------------- /proc readers *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime and stime of the calling thread, in seconds: fields 14 and 15 of
   /proc/thread-self/stat, counted in USER_HZ (100 on Linux) ticks. The
   command name in field 2 may hold spaces, so fields are counted from the
   closing parenthesis. *)
let thread_cpu () =
  match read_file "/proc/thread-self/stat" with
  | exception Sys_error _ -> (0.0, 0.0)
  | s ->
    let i = String.rindex s ')' in
    let fields =
      String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
    in
    let ticks k = float_of_string (List.nth fields k) /. 100.0 in
    (ticks 11, ticks 12)

(* user + system seconds of the whole process, every thread included *)
let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM, the peak resident set of this process, in MiB *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' s)

(* --------------------------------------------------------------- spans *)

(* A span is one call into a layer, timed from the bench. Spans go into a
   per-domain buffer and are written once, at exit; [parent] links a span
   to the one that caused it (across domains when passed explicitly) and
   [run] names the measured unit it belongs to. Recording is off unless
   the run is traced; [timed] returns the duration either way, so the
   per-layer numbers and the trace come from the same clock reads. *)

type span = {
  name : string;
  id : int;
  parent : int;
  run : int;
  tid : int;
  t0 : float;
  t1 : float;
}

type buffer = { mutable spans : span list; mutable stack : int list }

let tracing = Atomic.make false
let next_id = Atomic.make 1
let run_id = Atomic.make 0
let buffers = ref []
let buffers_lock = Mutex.create ()
let origin = now ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = [] } in
      Mutex.protect buffers_lock (fun () -> buffers := b :: !buffers);
      b)

let current_span () =
  match (Domain.DLS.get buffer_key).stack with p :: _ -> p | [] -> 0

let timed ?parent name f =
  if not (Atomic.get tracing) then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let b = Domain.DLS.get buffer_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent =
      match (parent, b.stack) with
      | Some p, _ -> p
      | None, p :: _ -> p
      | None, [] -> 0
    in
    b.stack <- id :: b.stack;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> b.stack <- List.tl b.stack) f in
    let t1 = now () in
    b.spans <-
      {
        name;
        id;
        parent;
        run = Atomic.get run_id;
        tid = (Domain.self () :> int);
        t0;
        t1;
      }
      :: b.spans;
    (r, t1 -. t0)
  end

let span name f = fst (timed name f)

(* Chrome trace-event JSON ("X" complete events, microseconds) *)
let write_chrome_trace path =
  let spans =
    Mutex.protect buffers_lock (fun () -> List.concat_map (fun b -> b.spans) !buffers)
    |> List.sort (fun a b -> Float.compare a.t0 b.t0)
  in
  let event s =
    Printf.sprintf
      "{\"name\": %s, \"cat\": \"e2e\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": \
       %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"id\": %d, \"parent\": %d, \
       \"run\": %d}}"
      (Json.quote s.name)
      ((s.t0 -. origin) *. 1e6)
      ((s.t1 -. s.t0) *. 1e6)
      s.tid s.id s.parent s.run
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\": [\n";
      output_string oc (String.concat ",\n" (List.map event spans));
      output_string oc "\n]}\n")

(* Scratch files (snapshots, journals) live under the working directory,
   one name per process, and are removed by the workload that made them. *)
let work_dir = ".e2e_bench"

let work_file name =
  (try Unix.mkdir work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Filename.concat work_dir (Printf.sprintf "%d-%s" (Unix.getpid ()) name)

let remove path = try Sys.remove path with Sys_error _ -> ()

(* ns per call of [f]: the median of five batches of [iters] calls *)
let ns_per_call ~iters f =
  median
    (List.init 5 (fun _ ->
         let t0 = now () in
         for _ = 1 to iters do
           f ()
         done;
         (now () -. t0) /. float_of_int iters *. 1e9))

(* ------------------------------------------------------------ workloads *)

(* One measured sample: a drain, an execution or an iteration. *)
type sample = {
  tasks : int;  (** tasks completed exactly once *)
  wall_s : float;
  cpu_s : float;  (** process user + system seconds over [wall_s] *)
  layers : (string * float) list;  (** per-layer values; traced units only *)
}

(* One unit of work: a fresh set-up followed by one or more samples.
   [attempted] counts tasks and checks, [failed] the tasks not completed
   exactly once, protocol errors, reconnects and failed checks. *)
type unit_result = {
  setup_s : float;
  samples : sample list;
  attempted : int;
  failed : int;
}

type workload = {
  run_unit : traced:bool -> unit_result;
  probes : unit -> (string * float) list;
      (** layer probes and values derived from them; traced runs only,
          after the measured units *)
  finish : unit -> unit;  (** removes the workload's scratch files *)
}

(* ------------------------------------------------------------- metrics *)

(* Every workload reports every per-layer metric; a layer that is not on
   a workload's path reports 0 there. *)
let per_layer =
  [
    ("tcp.server_user_s", "s/drain");
    ("tcp.server_sys_s", "s/drain");
    ("tcp.server_busy_share", "ratio");
    ("tcp.client_user_s", "s/drain");
    ("tcp.client_sys_s", "s/drain");
    ("tcp.client_busy_share", "ratio");
    ("tcp.frames_per_task", "frames/task");
    ("tcp.wire_bytes_per_task", "B/task");
    ("attrib.unexplained_share", "ratio");
    ("wire.encode_ns.lease_req", "ns/call");
    ("wire.encode_ns.lease", "ns/call");
    ("wire.encode_ns.complete", "ns/call");
    ("wire.encode_ns.ack", "ns/call");
    ("wire.encode_ns.retry_after", "ns/call");
    ("wire.decode_ns.lease_req", "ns/call");
    ("wire.decode_ns.lease", "ns/call");
    ("wire.decode_ns.complete", "ns/call");
    ("wire.decode_ns.ack", "ns/call");
    ("wire.decode_ns.retry_after", "ns/call");
    ("server.handle_ns.lease", "ns/call");
    ("server.handle_ns.retry_after", "ns/call");
    ("server.handle_ns.complete", "ns/call");
    ("server.expire_ns", "ns/call");
    ("server.retry_after_share", "ratio");
    ("server.tasks_per_lease", "tasks/lease");
    ("server.reissue_share", "ratio");
    ("server.duplicate_share", "ratio");
    ("shards.pop_ns_per_task", "ns/task");
    ("shard_view.complete_ns", "ns/node");
    ("journal.append_us.complete", "us/append");
    ("journal.append_us.lease", "us/append");
    ("journal.checkpoint_ms", "ms/checkpoint");
    ("journal.bytes_per_task", "B/task");
    ("live.mirror_ns_per_task", "ns/task");
    ("hammer.lease_grant_p50_ms", "ms/lease");
    ("hammer.lease_grant_p99_ms", "ms/lease");
    ("hammer.worker_util", "ratio");
    ("hammer.virtual_makespan_s", "virtual_s");
    ("hammer.requests_per_task", "requests/task");
    ("hammer.harness_share", "ratio");
    ("runtime.speedup", "x");
    ("runtime.steal_success", "ratio");
    ("runtime.steal_attempts_per_ktask", "1/ktask");
    ("runtime.parks_per_ktask", "1/ktask");
    ("runtime.overflows", "count");
    ("runtime.imbalance", "ratio");
    ("runtime.cpu_share", "ratio");
    ("runtime.overhead_ns_per_task", "ns/task");
    ("deque.pushpop_ns", "ns/op");
    ("engine.seq_ns_per_task", "ns/task");
    ("dag.build_ns_per_arc.mesh", "ns/arc");
    ("dag.build_ns_per_arc.butterfly", "ns/arc");
    ("dag.build_ns_per_arc.prefix", "ns/arc");
    ("dag.snapshot_save_ms", "ms/snapshot");
    ("dag.snapshot_load_ms", "ms/snapshot");
    ("schedule.build_ns_per_node.mesh", "ns/node");
    ("schedule.build_ns_per_node.butterfly", "ns/node");
    ("schedule.build_ns_per_node.prefix", "ns/node");
    ("frontier.profile_ns_per_node.mesh", "ns/node");
    ("frontier.profile_ns_per_node.butterfly", "ns/node");
    ("frontier.profile_ns_per_node.prefix", "ns/node");
    ("frontier.replay_ns_per_node.mesh", "ns/node");
    ("frontier.replay_ns_per_node.butterfly", "ns/node");
    ("frontier.replay_ns_per_node.prefix", "ns/node");
    ("gc.minor_words_per_task", "words/task");
    ("gc.major_collections", "count");
    ("trace.overhead_share", "ratio");
  ]

type metric = { name : string; unit_ : string; value : float; n : int }

(* every digit the float has; JSON has no nan or infinity *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let metrics_json ~with_n ms =
  ms
  |> List.map (fun m ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s%s}" (Json.quote m.name)
           (number m.value) (Json.quote m.unit_)
           (if with_n then Printf.sprintf ", \"n\": %d" m.n else ""))
  |> String.concat ", "

(* the benchmark's own record, one JSON line per run: what --json-out
   collects and --agree reads *)
let record_line ~workload ~seed ~pass ms =
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"pass\": %s, \"metrics\": {%s}}"
    (Json.quote workload) seed (Json.quote pass)
    (metrics_json ~with_n:true ms)

(* the last line of standard output *)
let result_line ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (metrics_json ~with_n:false ms)

(* ------------------------------------------------------------- the run *)

(* Run units back to back until [seconds] have passed (at least one, and
   in a traced run at least one of each kind). A traced run alternates
   untraced and traced units, so the tracing overhead is measured inside
   the same process; per-layer values are medians over the traced units.
   Each unit starts from a collected heap, so that no unit, and no
   set-up time, pays for the garbage its predecessor left. *)
let run (w : workload) ~seconds ~trace =
  let t_end = now () +. seconds in
  let units = ref [] in
  let i = ref 0 in
  while List.length !units < (if trace then 2 else 1) || now () < t_end do
    let traced = trace && !i mod 2 = 1 in
    Gc.full_major ();
    Atomic.set tracing traced;
    Atomic.set run_id !i;
    let r = span "unit" (fun () -> w.run_unit ~traced) in
    Atomic.set tracing false;
    units := (traced, r) :: !units;
    incr i
  done;
  let units = List.rev !units in
  let samples_of pick =
    List.concat_map (fun (t, u) -> if pick t then u.samples else []) units
  in
  let rate s = ratio (float_of_int s.tasks) s.wall_s in
  let plain = samples_of (fun t -> not t) in
  let attempted, failed =
    List.fold_left
      (fun (a, f) (_, u) -> (a + u.attempted, f + u.failed))
      (0, 0) units
  in
  let metrics =
    if not trace then
      let m name unit_ vs = { name; unit_; value = median vs; n = List.length vs } in
      [
        m "tasks_per_s" "tasks/s" (List.map rate plain);
        m "setup_s" "s" (List.map (fun (_, u) -> u.setup_s) units);
        m "cpu_ms_per_ktask" "ms"
          (List.map (fun s -> ratio (s.cpu_s *. 1e6) (float_of_int s.tasks)) plain);
        { name = "peak_rss_mb"; unit_ = "MiB"; value = peak_rss_mb (); n = 1 };
      ]
    else begin
      let traced = samples_of Fun.id in
      let probed = w.probes () in
      let overhead =
        1.0
        -. ratio (median (List.map rate traced)) (median (List.map rate plain))
      in
      List.map
        (fun (name, unit_) ->
          if name = "trace.overhead_share" then
            { name; unit_; value = overhead; n = List.length traced }
          else
            match List.assoc_opt name probed with
            | Some v -> { name; unit_; value = v; n = 1 }
            | None ->
              let vs = List.filter_map (fun s -> List.assoc_opt name s.layers) traced in
              { name; unit_; value = median vs; n = List.length vs })
        per_layer
    end
  in
  w.finish ();
  (metrics, attempted, failed)

(* ------------------------------------------------------------ --agree *)

(* [--agree A B]: compare two sets of runs (files of record lines) metric
   by metric, against the bounds and directions in BENCHMARK.json. A
   metric agrees when B's median is not worse than A's by more than the
   bound; it is unresolved when either set's own quartile spread exceeds
   the bound and not every run of B reads better than every run of A. *)

let json_file path =
  match Json.parse (read_file path) with
  | Ok v -> v
  | Error e -> failwith (path ^ ": " ^ e)

let records path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.parse l with Ok v -> v | Error e -> failwith (path ^ ": " ^ e))
  |> List.filter (fun r -> Json.member "pass" r = Some (Json.String "e2e"))

let values recs ~workload ~metric =
  List.filter_map
    (fun r ->
      if Json.member "workload" r <> Some (Json.String workload) then None
      else
        Option.bind (Json.member "metrics" r) (Json.member metric)
        |> Fun.flip Option.bind (Json.member "value")
        |> Fun.flip Option.bind Json.to_number)
    recs

let agree ~benchmark a_path b_path =
  let bench = json_file benchmark in
  let list key = Option.fold ~none:[] ~some:Json.to_list (Json.member key bench) in
  let str key v = Option.bind (Json.member key v) Json.to_string |> Option.get in
  let workloads = List.map (str "name") (list "workloads") in
  let a = records a_path and b = records b_path in
  let bad = ref 0 in
  Printf.printf "%-14s %-17s %14s %14s %8s %8s %8s %6s  %s\n" "workload" "metric"
    "median A" "median B" "spread A" "spread B" "worse" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun m ->
          let metric = str "name" m in
          let bound = Option.bind (Json.member "bound" m) Json.to_number |> Option.get in
          let lower = str "better" m = "lower" in
          let va = values a ~workload ~metric and vb = values b ~workload ~metric in
          if va = [] || vb = [] then begin
            incr bad;
            Printf.printf "%-14s %-17s missing from %s\n" workload metric
              (if va = [] then a_path else b_path)
          end
          else
            let ma = median va and mb = median vb in
            let worse = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
            let sa = spread va and sb = spread vb in
            let better x y = if lower then x < y else x > y in
            let b_wins =
              List.for_all (fun y -> List.for_all (fun x -> better y x) va) vb
            in
            (* set-up time is judged on its median alone: its spread is
               not held to the bound *)
            let noisy = metric <> "setup_s" && Float.max sa sb > bound in
            let verdict =
              if noisy && not b_wins then "unresolved"
              else if worse > bound then "worse"
              else "agree"
            in
            if verdict <> "agree" then incr bad;
            Printf.printf "%-14s %-17s %14.6g %14.6g %8.4f %8.4f %+8.4f %6.3f  %s\n"
              workload metric ma mb sa sb worse bound verdict)
        (list "end_to_end"))
    workloads;
  !bad = 0
