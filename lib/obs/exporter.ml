(* Chrome trace-event output. Complete ("X") slices are reconstructed by
   pairing each Task_alloc with the Task_complete/Task_fail/
   Replica_cancelled/Client_crash that closes it — a client holds at most
   one allocation at a time (even under speculation, replicas run on
   distinct clients), so an array indexed by client suffices. Counter
   ("C") samples come straight from the Eligible_count events; stall
   periods pair Client_stall/Client_resume the same way. Recovery
   decisions (timeouts, retries, speculative launches) and client
   crash/rejoin render as instant ("i") events. *)

let json_escape = Json.escape

(* simulated seconds -> trace microseconds, printed with fixed precision so
   equal traces export byte-equally *)
let us t = Printf.sprintf "%.3f" (1e6 *. t)

type slice_status = Ok | Lost | Cancelled

let chrome_trace ?(process_name = "ic_sched")
    ?(label = fun v -> "t" ^ string_of_int v) tr =
  let max_client = ref (-1) in
  Trace.iter
    (fun e ->
      match e.Trace.kind with
      | Task_alloc | Task_start | Task_complete | Task_fail
      | Timeout_fired | Replica_cancelled ->
        if e.b > !max_client then max_client := e.b
      | Client_stall | Client_resume | Client_crash | Client_rejoin ->
        if e.a > !max_client then max_client := e.a
      | Frontier_push | Frontier_pop | Eligible_count | Retry_scheduled
      | Speculative_launch | Frontier_depth | Inflight | Span_enter
      | Span_leave -> ())
    tr;
  let n_clients = !max_client + 1 in
  let buf = Buffer.create 4096 in
  let first = ref true in
  let entry line =
    if !first then Buffer.add_string buf "[\n" else Buffer.add_string buf ",\n";
    first := false;
    Buffer.add_string buf line
  in
  entry
    (Printf.sprintf
       "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"process_name\", \
        \"args\": {\"name\": \"%s\"}}"
       (json_escape process_name));
  entry
    "{\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": \"thread_name\", \
     \"args\": {\"name\": \"server\"}}";
  for c = 0 to n_clients - 1 do
    entry
      (Printf.sprintf
         "{\"ph\": \"M\", \"pid\": 0, \"tid\": %d, \"name\": \"thread_name\", \
          \"args\": {\"name\": \"client %d\"}}"
         (c + 1) c)
  done;
  let instant ~tid time name args =
    entry
      (Printf.sprintf
         "{\"ph\": \"i\", \"s\": \"t\", \"pid\": 0, \"tid\": %d, \"ts\": %s, \
          \"name\": \"%s\", \"args\": {%s}}"
         tid (us time) (json_escape name) args)
  in
  let open_task = Array.make (max n_clients 1) (-1) in
  let open_task_at = Array.make (max n_clients 1) 0.0 in
  let stall_since = Array.make (max n_clients 1) nan in
  let duration time t0 = if time > t0 then time -. t0 else 0.0 in
  let close_task status time task client =
    if client >= 0 && client < n_clients && open_task.(client) = task then begin
      let t0 = open_task_at.(client) in
      open_task.(client) <- -1;
      let suffix, extra =
        match status with
        | Ok -> ("", "")
        | Lost -> (" (lost)", ", \"lost\": true")
        | Cancelled -> (" (cancelled)", ", \"cancelled\": true")
      in
      entry
        (Printf.sprintf
           "{\"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"ts\": %s, \"dur\": %s, \
            \"name\": \"%s\", \"args\": {\"task\": %d%s}}"
           (client + 1) (us t0)
           (us (duration time t0))
           (json_escape (label task ^ suffix))
           task extra)
    end
  in
  let close_stall time client =
    if
      client >= 0 && client < n_clients
      && not (Float.is_nan stall_since.(client))
    then begin
      let t0 = stall_since.(client) in
      stall_since.(client) <- nan;
      entry
        (Printf.sprintf
           "{\"ph\": \"X\", \"pid\": 0, \"tid\": %d, \"ts\": %s, \"dur\": %s, \
            \"name\": \"stall\", \"args\": {}}"
           (client + 1) (us t0)
           (us (time -. t0)))
    end
  in
  Trace.iter
    (fun e ->
      match e.Trace.kind with
      | Task_alloc ->
        if e.b >= 0 && e.b < n_clients then begin
          open_task.(e.b) <- e.a;
          open_task_at.(e.b) <- e.time
        end
      | Task_start -> ()
      | Task_complete -> close_task Ok e.time e.a e.b
      | Task_fail -> close_task Lost e.time e.a e.b
      | Replica_cancelled -> close_task Cancelled e.time e.a e.b
      | Client_stall ->
        if e.a >= 0 && e.a < n_clients then stall_since.(e.a) <- e.time
      | Client_resume -> close_stall e.time e.a
      | Client_crash ->
        (* whatever the client held dies with it *)
        if e.a >= 0 && e.a < n_clients && open_task.(e.a) >= 0 then
          close_task Lost e.time open_task.(e.a) e.a;
        close_stall e.time e.a;
        instant ~tid:(e.a + 1) e.time
          (if e.b = 0 then "crash" else "disconnect")
          (Printf.sprintf "\"client\": %d" e.a)
      | Client_rejoin ->
        instant ~tid:(e.a + 1) e.time "rejoin"
          (Printf.sprintf "\"client\": %d" e.a)
      | Timeout_fired ->
        instant ~tid:0 e.time "timeout"
          (Printf.sprintf "\"task\": %d, \"client\": %d" e.a e.b)
      | Retry_scheduled ->
        instant ~tid:0 e.time "retry"
          (Printf.sprintf "\"task\": %d, \"retry\": %d" e.a e.b)
      | Speculative_launch ->
        instant ~tid:0 e.time "speculate" (Printf.sprintf "\"task\": %d" e.a)
      | Frontier_push | Frontier_pop | Span_enter | Span_leave -> ()
      | Eligible_count ->
        entry
          (Printf.sprintf
             "{\"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": %s, \"name\": \
              \"|ELIGIBLE|\", \"args\": {\"eligible\": %d}}"
             (us e.time) e.a)
      | Frontier_depth ->
        (* one counter track per shard, next to |ELIGIBLE| *)
        entry
          (Printf.sprintf
             "{\"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": %s, \"name\": \
              \"|READY shard%d|\", \"args\": {\"ready\": %d}}"
             (us e.time) e.a e.b)
      | Inflight ->
        entry
          (Printf.sprintf
             "{\"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": %s, \"name\": \
              \"|INFLIGHT|\", \"args\": {\"inflight\": %d}}"
             (us e.time) e.a))
    tr;
  if !first then Buffer.add_string buf "[\n";
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let eligibility_csv tr =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time,eligible\n";
  Array.iter
    (fun (time, count) ->
      Buffer.add_string buf (Printf.sprintf "%.9g,%d\n" time count))
    (Trace.eligibility_timeline tr);
  Buffer.contents buf
