(* Two stores behind one emit. In memory the trace is column-wise: one
   byte per event for the kind, one unboxed float for the timestamp, two
   ints of payload; emission writes four cells and bumps the length, and
   the columns double when full, so a trace of e events does O(log e)
   allocations total regardless of event mix. A recorder is the mapped
   ring described below, written one frame per event. *)

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
  | Span_enter
  | Span_leave

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
  | Span_enter -> 17
  | Span_leave -> 18

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
  | 17 -> Span_enter
  | 18 -> Span_leave
  | _ -> assert false

let kind_of_int_opt i = if i >= 0 && i <= 18 then Some (kind_of_int i) else None

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
  | Span_enter -> "span_enter"
  | Span_leave -> "span_leave"

type event = { kind : kind; time : float; a : int; b : int }

type columns = {
  mutable kinds : Bytes.t;
  mutable times : float array;
  mutable pa : int array;
  mutable pb : int array;
  mutable len : int;
}

(* The recorder's file:

     magic "ICFLT001" | u32 slot-count | u32 slot-size (= 40)
     then slot-count frames of
     u64 seq | f64 time | u64 a | u64 b | u32 kind | u32 CRC32

   all little endian; the CRC-32 covers the 36 bytes before it. seq = 0
   marks a slot never written. The file is mapped shared and written in
   place: slot (seq-1) mod slot-count. There is no cursor, header update
   or flush on the record path — a reader reconstructs the ring order
   from the sequence numbers alone, and a frame the writer was killed
   inside simply fails its CRC. *)

type ba =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type ring = {
  map : ba;
  n_slots : int;
  scratch : Bytes.t;  (* the frame being encoded *)
  mutable next_seq : int;
}

type t = Memory of columns | Recorder of ring

let magic = "ICFLT001"
let header_size = 16
let slot_size = 40
let default_slots = 4096

(* A frame numbered above this is garbage: no run gets there (2^61
   events at one per nanosecond take 73 years), and numbering continued
   from below it cannot overflow into a negative slot. *)
let max_seq = 1 lsl 61

let file_size n_slots = header_size + (n_slots * slot_size)

let create ?(capacity = 1024) () =
  let capacity = max capacity 16 in
  Memory
    {
      kinds = Bytes.create capacity;
      times = Array.make capacity 0.0;
      pa = Array.make capacity 0;
      pb = Array.make capacity 0;
      len = 0;
    }

(* ------------------------------------------------------------ frames *)

type frame = { seq : int; event : event }

let encode_frame f ~seq kind ~time ~a ~b =
  Bytes.set_int64_le f 0 (Int64.of_int seq);
  Bytes.set_int64_le f 8 (Int64.bits_of_float time);
  Bytes.set_int64_le f 16 (Int64.of_int a);
  Bytes.set_int64_le f 24 (Int64.of_int b);
  Bytes.set_int32_le f 32 (Int32.of_int (kind_to_int kind));
  Bytes.set_int32_le f 36 (Int32.of_int (Crc32.digest f 0 36))

let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF

(* [None] for an empty, torn, foreign or out-of-range slot *)
let decode_frame b off =
  let seq = Bytes.get_int64_le b off in
  if Int64.compare seq 1L < 0 || Int64.compare seq (Int64.of_int max_seq) > 0
  then None
  else if Crc32.digest b off 36 <> get_u32 b (off + 36) then None
  else
    match kind_of_int_opt (get_u32 b (off + 32)) with
    | None -> None
    | Some kind ->
      Some
        {
          seq = Int64.to_int seq;
          event =
            {
              kind;
              time = Int64.float_of_bits (Bytes.get_int64_le b (off + 8));
              a = Int64.to_int (Bytes.get_int64_le b (off + 16));
              b = Int64.to_int (Bytes.get_int64_le b (off + 24));
            };
        }

(* the slot count a ring image's header declares, checked against the
   image's length *)
let check_header b =
  let len = Bytes.length b in
  if len < header_size || Bytes.sub_string b 0 (String.length magic) <> magic
  then Error "not a flight recorder (bad magic)"
  else if get_u32 b 12 <> slot_size then
    Error "unsupported flight-recorder frame size"
  else if len < file_size (get_u32 b 8) then
    Error "flight recorder shorter than its header claims"
  else Ok (get_u32 b 8)

(* the valid frames of a ring image, ascending sequence order *)
let frames_of b n_slots =
  let acc = ref [] in
  for s = n_slots - 1 downto 0 do
    match decode_frame b (header_size + (s * slot_size)) with
    | Some f -> acc := f :: !acc
    | None -> ()
  done;
  let frames = Array.of_list !acc in
  Array.stable_sort (fun x y -> Int.compare x.seq y.seq) frames;
  frames

(* ---------------------------------------------------------- the ring *)

let blit_to_map map off b len =
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set map (off + i) (Bytes.unsafe_get b i)
  done

let image r =
  Bytes.init (file_size r.n_slots) (fun i -> Bigarray.Array1.get r.map i)

let wipe r =
  Bigarray.Array1.fill r.map '\000';
  let h = Bytes.make header_size '\000' in
  Bytes.blit_string magic 0 h 0 (String.length magic);
  Bytes.set_int32_le h 8 (Int32.of_int r.n_slots);
  Bytes.set_int32_le h 12 (Int32.of_int slot_size);
  blit_to_map r.map 0 h header_size

let map_file path size =
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  (* the mapping outlives the descriptor *)
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let reopen = (Unix.fstat fd).Unix.st_size = size in
      if not reopen then Unix.ftruncate fd size;
      let map =
        Unix.map_file fd Bigarray.char Bigarray.c_layout true [| size |]
      in
      (Bigarray.array1_of_genarray map, reopen))

let recorder ?(slots = default_slots) path =
  let n_slots = max slots 16 in
  match map_file path (file_size n_slots) with
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e))
  | map, reopen ->
    let r = { map; n_slots; scratch = Bytes.create slot_size; next_seq = 1 } in
    let b = image r in
    (if reopen && check_header b = Ok n_slots then begin
       let frames = frames_of b n_slots in
       let n = Array.length frames in
       if n > 0 then r.next_seq <- frames.(n - 1).seq + 1
     end
     else (* fresh file, foreign content or changed geometry *)
       wipe r);
    Ok (Recorder r)

let clear = function
  | Memory c -> c.len <- 0
  | Recorder r ->
    Bigarray.Array1.fill
      (Bigarray.Array1.sub r.map header_size (r.n_slots * slot_size))
      '\000'

let grow c =
  let cap = 2 * Array.length c.times in
  let kinds = Bytes.create cap in
  Bytes.blit c.kinds 0 kinds 0 c.len;
  let times = Array.make cap 0.0 in
  Array.blit c.times 0 times 0 c.len;
  let pa = Array.make cap 0 in
  Array.blit c.pa 0 pa 0 c.len;
  let pb = Array.make cap 0 in
  Array.blit c.pb 0 pb 0 c.len;
  c.kinds <- kinds;
  c.times <- times;
  c.pa <- pa;
  c.pb <- pb

let emit t kind ~time ~a ~b =
  match t with
  | Memory c ->
    if c.len = Array.length c.times then grow c;
    let i = c.len in
    Bytes.unsafe_set c.kinds i (Char.unsafe_chr (kind_to_int kind));
    Array.unsafe_set c.times i time;
    Array.unsafe_set c.pa i a;
    Array.unsafe_set c.pb i b;
    c.len <- i + 1
  | Recorder r ->
    let seq = r.next_seq in
    r.next_seq <- seq + 1;
    encode_frame r.scratch ~seq kind ~time ~a ~b;
    blit_to_map r.map
      (header_size + ((seq - 1) mod r.n_slots * slot_size))
      r.scratch slot_size

(* ---------------------------------------------------------- reading *)

let column c i =
  {
    kind = kind_of_int (Char.code (Bytes.unsafe_get c.kinds i));
    time = Array.unsafe_get c.times i;
    a = Array.unsafe_get c.pa i;
    b = Array.unsafe_get c.pb i;
  }

let to_array = function
  | Memory c -> Array.init c.len (column c)
  | Recorder r ->
    Array.map (fun f -> f.event) (frames_of (image r) r.n_slots)

let length = function
  | Memory c -> c.len
  | Recorder _ as t -> Array.length (to_array t)

let get t i =
  let check n =
    if i < 0 || i >= n then invalid_arg "Trace.get: index out of range"
  in
  match t with
  | Memory c ->
    check c.len;
    column c i
  | Recorder _ ->
    let a = to_array t in
    check (Array.length a);
    a.(i)

let iter f = function
  | Memory c ->
    for i = 0 to c.len - 1 do
      f (column c i)
    done
  | Recorder _ as t -> Array.iter f (to_array t)

let eligibility_timeline t =
  let acc = ref [] in
  iter
    (fun e -> if e.kind = Eligible_count then acc := (e.time, e.a) :: !acc)
    t;
  Array.of_list (List.rev !acc)

(* ---------------------------------------------------------- recovery *)

type dump = { d_slots : int; d_valid : int; events : frame array }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
    let b = Bytes.unsafe_of_string s in
    match check_header b with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok n_slots ->
      let events = frames_of b n_slots in
      Ok { d_slots = n_slots; d_valid = Array.length events; events })

let of_dump d =
  let t = create ~capacity:(Array.length d.events) () in
  Array.iter
    (fun { event = e; _ } -> emit t e.kind ~time:e.time ~a:e.a ~b:e.b)
    d.events;
  t
