(* Column-wise storage: one byte per event for the kind, one unboxed float
   for the timestamp, two ints of payload. Emission writes four cells and
   bumps the length; the columns double when full, so a trace of e events
   does O(log e) allocations total regardless of event mix. *)

type kind =
  | Task_alloc
  | Task_start
  | Task_complete
  | Task_fail
  | Client_stall
  | Client_resume
  | Frontier_push
  | Frontier_pop
  | Eligible_count
  | Timeout_fired
  | Retry_scheduled
  | Speculative_launch
  | Replica_cancelled
  | Client_crash
  | Client_rejoin
  | Frontier_depth
  | Inflight

let kind_to_int = function
  | Task_alloc -> 0
  | Task_start -> 1
  | Task_complete -> 2
  | Task_fail -> 3
  | Client_stall -> 4
  | Client_resume -> 5
  | Frontier_push -> 6
  | Frontier_pop -> 7
  | Eligible_count -> 8
  | Timeout_fired -> 9
  | Retry_scheduled -> 10
  | Speculative_launch -> 11
  | Replica_cancelled -> 12
  | Client_crash -> 13
  | Client_rejoin -> 14
  | Frontier_depth -> 15
  | Inflight -> 16

let kind_of_int = function
  | 0 -> Task_alloc
  | 1 -> Task_start
  | 2 -> Task_complete
  | 3 -> Task_fail
  | 4 -> Client_stall
  | 5 -> Client_resume
  | 6 -> Frontier_push
  | 7 -> Frontier_pop
  | 8 -> Eligible_count
  | 9 -> Timeout_fired
  | 10 -> Retry_scheduled
  | 11 -> Speculative_launch
  | 12 -> Replica_cancelled
  | 13 -> Client_crash
  | 14 -> Client_rejoin
  | 15 -> Frontier_depth
  | 16 -> Inflight
  | _ -> assert false

let kind_of_int_opt i = if i >= 0 && i <= 16 then Some (kind_of_int i) else None

let kind_name = function
  | Task_alloc -> "task_alloc"
  | Task_start -> "task_start"
  | Task_complete -> "task_complete"
  | Task_fail -> "task_fail"
  | Client_stall -> "client_stall"
  | Client_resume -> "client_resume"
  | Frontier_push -> "frontier_push"
  | Frontier_pop -> "frontier_pop"
  | Eligible_count -> "eligible_count"
  | Timeout_fired -> "timeout_fired"
  | Retry_scheduled -> "retry_scheduled"
  | Speculative_launch -> "speculative_launch"
  | Replica_cancelled -> "replica_cancelled"
  | Client_crash -> "client_crash"
  | Client_rejoin -> "client_rejoin"
  | Frontier_depth -> "frontier_depth"
  | Inflight -> "inflight"

type event = { kind : kind; time : float; a : int; b : int }

type t = {
  mutable kinds : Bytes.t;
  mutable times : float array;
  mutable pa : int array;
  mutable pb : int array;
  mutable len : int;
  (* ring head: oldest event's physical index. Stays 0 until a bounded
     trace fills, so the unbounded layout is exactly the historical
     one. *)
  mutable start : int;
  limit : int;  (* 0 = unbounded *)
  mutable dropped : int;
}

let create ?(capacity = 1024) ?limit () =
  let limit =
    match limit with
    | None -> 0
    | Some l ->
      if l < 1 then invalid_arg "Trace.create: limit must be >= 1";
      l
  in
  let capacity = max capacity 16 in
  let capacity = if limit > 0 then min capacity limit else capacity in
  let capacity = max capacity 1 in
  {
    kinds = Bytes.create capacity;
    times = Array.make capacity 0.0;
    pa = Array.make capacity 0;
    pb = Array.make capacity 0;
    len = 0;
    start = 0;
    limit;
    dropped = 0;
  }

let length t = t.len
let limit t = t.limit
let dropped t = t.dropped

let clear t =
  t.len <- 0;
  t.start <- 0

let grow t =
  let cap = 2 * Array.length t.times in
  let cap = if t.limit > 0 then min cap t.limit else cap in
  let kinds = Bytes.create cap in
  Bytes.blit t.kinds 0 kinds 0 t.len;
  let times = Array.make cap 0.0 in
  Array.blit t.times 0 times 0 t.len;
  let pa = Array.make cap 0 in
  Array.blit t.pa 0 pa 0 t.len;
  let pb = Array.make cap 0 in
  Array.blit t.pb 0 pb 0 t.len;
  t.kinds <- kinds;
  t.times <- times;
  t.pa <- pa;
  t.pb <- pb

let emit t kind ~time ~a ~b =
  (if t.len = Array.length t.times then
     if t.limit = 0 || t.len < t.limit then grow t);
  if t.len < Array.length t.times then begin
    (* not yet full: [start] is still 0, physical index = len *)
    let i = t.len in
    Bytes.unsafe_set t.kinds i (Char.unsafe_chr (kind_to_int kind));
    Array.unsafe_set t.times i time;
    Array.unsafe_set t.pa i a;
    Array.unsafe_set t.pb i b;
    t.len <- i + 1
  end
  else begin
    (* bounded ring at capacity: overwrite the oldest event *)
    let i = t.start in
    Bytes.unsafe_set t.kinds i (Char.unsafe_chr (kind_to_int kind));
    Array.unsafe_set t.times i time;
    Array.unsafe_set t.pa i a;
    Array.unsafe_set t.pb i b;
    t.start <- (if i + 1 = t.len then 0 else i + 1);
    t.dropped <- t.dropped + 1
  end

let task_alloc t ~time ~task ~client = emit t Task_alloc ~time ~a:task ~b:client
let task_start t ~time ~task ~client = emit t Task_start ~time ~a:task ~b:client

let task_complete t ~time ~task ~client =
  emit t Task_complete ~time ~a:task ~b:client

let task_fail t ~time ~task ~client = emit t Task_fail ~time ~a:task ~b:client
let client_stall t ~time ~client = emit t Client_stall ~time ~a:client ~b:0
let client_resume t ~time ~client = emit t Client_resume ~time ~a:client ~b:0
let frontier_push t ~time ~node = emit t Frontier_push ~time ~a:node ~b:0
let frontier_pop t ~time ~node = emit t Frontier_pop ~time ~a:node ~b:0
let eligible_count t ~time ~count = emit t Eligible_count ~time ~a:count ~b:0

let timeout_fired t ~time ~task ~client =
  emit t Timeout_fired ~time ~a:task ~b:client

let retry_scheduled t ~time ~task ~retry =
  emit t Retry_scheduled ~time ~a:task ~b:retry

let speculative_launch t ~time ~task =
  emit t Speculative_launch ~time ~a:task ~b:0

let replica_cancelled t ~time ~task ~client =
  emit t Replica_cancelled ~time ~a:task ~b:client

let client_crash t ~time ~client ~transient =
  emit t Client_crash ~time ~a:client ~b:(if transient then 1 else 0)

let client_rejoin t ~time ~client = emit t Client_rejoin ~time ~a:client ~b:0

let frontier_depth t ~time ~shard ~depth =
  emit t Frontier_depth ~time ~a:shard ~b:depth

let inflight t ~time ~count = emit t Inflight ~time ~a:count ~b:0

(* logical position [i] (0 = oldest retained event) -> physical index;
   [start] is 0 unless a bounded ring has wrapped *)
let phys t i =
  let p = t.start + i in
  if p >= t.len then p - t.len else p

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get: index out of range";
  let i = phys t i in
  {
    kind = kind_of_int (Char.code (Bytes.get t.kinds i));
    time = t.times.(i);
    a = t.pa.(i);
    b = t.pb.(i);
  }

let iter f t =
  for i = 0 to t.len - 1 do
    let i = phys t i in
    f
      {
        kind = kind_of_int (Char.code (Bytes.unsafe_get t.kinds i));
        time = Array.unsafe_get t.times i;
        a = Array.unsafe_get t.pa i;
        b = Array.unsafe_get t.pb i;
      }
  done

let to_array t = Array.init t.len (get t)

let eligibility_timeline t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if Char.code (Bytes.unsafe_get t.kinds i) = kind_to_int Eligible_count then
      incr n
  done;
  let out = Array.make !n (0.0, 0) in
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let i = phys t i in
    if Char.code (Bytes.unsafe_get t.kinds i) = kind_to_int Eligible_count
    then begin
      out.(!j) <- (t.times.(i), t.pa.(i));
      incr j
    end
  done;
  out
