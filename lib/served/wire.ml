type msg =
  | Hello of { worker : int }
  | Lease_req of { worker : int; k : int }
  | Complete of { worker : int; task : int }
  | Heartbeat of { worker : int }
  | Drain
  | Welcome of { n_tasks : int; n_shards : int }
  | Lease of { tasks : int array; expires_in_s : float }
  | Retry_after of { delay_s : float }
  | Done of { completed : int; reissues : int }
  | Ack

let max_frame = 1 lsl 20
let max_lease_tasks = 4096
let max_u32 = 0xFFFFFFFF

(* tags: client messages in 1..15, server messages from 16 *)
let tag = function
  | Hello _ -> 1
  | Lease_req _ -> 2
  | Complete _ -> 3
  | Heartbeat _ -> 4
  | Drain -> 5
  | Welcome _ -> 16
  | Lease _ -> 17
  | Retry_after _ -> 18
  | Done _ -> 19
  | Ack -> 20

(* ------------------------------------------------------------ encode -- *)

let check_u32 name v =
  if v < 0 || v > max_u32 then
    invalid_arg (Printf.sprintf "Wire.encode: %s %d out of u32 range" name v)

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)
let add_u16 buf v = Buffer.add_uint16_le buf v
let add_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

(* every range check of [m], run before a byte is written so a rejected
   message leaves a shared (coalescing) buffer untouched *)
let validate = function
  | Hello { worker } | Heartbeat { worker } -> check_u32 "worker" worker
  | Lease_req { worker; k } ->
    check_u32 "worker" worker;
    if k < 1 || k > 0xFFFF then
      invalid_arg (Printf.sprintf "Wire.encode: k %d out of range 1..65535" k)
  | Complete { worker; task } ->
    check_u32 "worker" worker;
    check_u32 "task" task
  | Drain | Ack | Retry_after _ -> ()
  | Welcome { n_tasks; n_shards } ->
    check_u32 "n_tasks" n_tasks;
    check_u32 "n_shards" n_shards
  | Lease { tasks; _ } ->
    let b = Array.length tasks in
    if b > max_lease_tasks then
      invalid_arg
        (Printf.sprintf "Wire.encode: lease of %d tasks exceeds %d" b
           max_lease_tasks);
    for i = 0 to b - 1 do
      check_u32 "task" tasks.(i)
    done
  | Done { completed; reissues } ->
    check_u32 "completed" completed;
    check_u32 "reissues" reissues

(* tag byte included *)
let payload_length = function
  | Drain | Ack -> 1
  | Hello _ | Heartbeat _ -> 5
  | Lease_req _ -> 7
  | Complete _ | Welcome _ | Retry_after _ | Done _ -> 9
  | Lease { tasks; _ } -> 11 + (4 * Array.length tasks)

let encode buf m =
  validate m;
  add_u32 buf (payload_length m);
  Buffer.add_uint8 buf (tag m);
  match m with
  | Hello { worker } | Heartbeat { worker } -> add_u32 buf worker
  | Lease_req { worker; k } ->
    add_u32 buf worker;
    add_u16 buf k
  | Complete { worker = a; task = b }
  | Welcome { n_tasks = a; n_shards = b }
  | Done { completed = a; reissues = b } ->
    add_u32 buf a;
    add_u32 buf b
  | Drain | Ack -> ()
  | Lease { tasks; expires_in_s } ->
    add_u16 buf (Array.length tasks);
    for i = 0 to Array.length tasks - 1 do
      add_u32 buf tasks.(i)
    done;
    add_f64 buf expires_in_s
  | Retry_after { delay_s } -> add_f64 buf delay_s

let to_string m =
  let b = Buffer.create 32 in
  encode b m;
  Buffer.contents b

(* ------------------------------------------------------------ decode -- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* a cursor over the payload region; every read is bounds-checked against
   the frame end so a short payload is a clean [Bad], never an escape *)
type cursor = { b : Bytes.t; stop : int; mutable p : int }

let need c n what =
  if c.p + n > c.stop then
    bad "truncated payload: %s needs %d bytes, %d left" what n (c.stop - c.p)

let u8 c what =
  need c 1 what;
  let v = Bytes.get_uint8 c.b c.p in
  c.p <- c.p + 1;
  v

let u16 c what =
  need c 2 what;
  let v = Bytes.get_uint16_le c.b c.p in
  c.p <- c.p + 2;
  v

let u32 c what =
  need c 4 what;
  let v = Int32.to_int (Bytes.get_int32_le c.b c.p) land max_u32 in
  c.p <- c.p + 4;
  v

let f64 c what =
  need c 8 what;
  let v = Int64.float_of_bits (Bytes.get_int64_le c.b c.p) in
  c.p <- c.p + 8;
  v

let decode_payload c =
  let m =
    match u8 c "tag" with
    | 1 -> Hello { worker = u32 c "worker" }
    | 2 ->
      let worker = u32 c "worker" in
      let k = u16 c "k" in
      if k < 1 then bad "lease_req: k must be >= 1";
      Lease_req { worker; k }
    | 3 ->
      let worker = u32 c "worker" in
      Complete { worker; task = u32 c "task" }
    | 4 -> Heartbeat { worker = u32 c "worker" }
    | 5 -> Drain
    | 16 ->
      let n_tasks = u32 c "n_tasks" in
      Welcome { n_tasks; n_shards = u32 c "n_shards" }
    | 17 ->
      let b = u16 c "batch size" in
      if b > max_lease_tasks then
        bad "lease of %d tasks exceeds %d" b max_lease_tasks;
      let tasks = Array.init b (fun _ -> u32 c "task") in
      Lease { tasks; expires_in_s = f64 c "expires_in_s" }
    | 18 -> Retry_after { delay_s = f64 c "delay_s" }
    | 19 ->
      let completed = u32 c "completed" in
      Done { completed; reissues = u32 c "reissues" }
    | 20 -> Ack
    | t -> bad "unknown tag %d" t
  in
  if c.p <> c.stop then bad "%d trailing bytes inside frame" (c.stop - c.p);
  m

let decode_frame b ~pos ~avail =
  if avail < 4 then `Need_more
  else
    let len = Int32.to_int (Bytes.get_int32_le b pos) land max_u32 in
    if len < 1 then `Error (Printf.sprintf "bad frame length %d" len)
    else if len > max_frame then
      `Error (Printf.sprintf "oversized frame: %d bytes (max %d)" len max_frame)
    else if avail < 4 + len then `Need_more
    else
      match decode_payload { b; stop = pos + 4 + len; p = pos + 4 } with
      | m -> `Msg (m, 4 + len)
      | exception Bad e -> `Error e

(* ------------------------------------------------------------ reader -- *)

module Reader = struct
  type t = { mutable buf : Bytes.t; mutable start : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; start = 0; len = 0 }
  let pending_bytes t = t.len

  let feed t src off n =
    if n < 0 || off < 0 || off + n > Bytes.length src then
      invalid_arg "Wire.Reader.feed: bad slice";
    let cap = Bytes.length t.buf in
    if t.start + t.len + n > cap then begin
      (* compact, growing if even a compacted buffer cannot take [n] *)
      let need = t.len + n in
      let cap' =
        let c = ref (max cap 4096) in
        while !c < need do
          c := !c * 2
        done;
        !c
      in
      let dst = if cap' > cap then Bytes.create cap' else t.buf in
      Bytes.blit t.buf t.start dst 0 t.len;
      t.buf <- dst;
      t.start <- 0
    end;
    Bytes.blit src off t.buf (t.start + t.len) n;
    t.len <- t.len + n

  let next t =
    match decode_frame t.buf ~pos:t.start ~avail:t.len with
    | `Need_more -> Ok None
    | `Error e -> Error e
    | `Msg (m, consumed) ->
      t.start <- t.start + consumed;
      t.len <- t.len - consumed;
      if t.len = 0 then t.start <- 0;
      Ok (Some m)
end
