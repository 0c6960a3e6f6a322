(* The black box. On disk:

     magic "ICFLT001" | u32 slot-count | u32 slot-size (= 40)
     then slot-count frames of
     u64 seq | f64 time | u64 a | u64 b | u32 kind | u32 CRC32

   all little endian; CRC32 (same 0xEDB88320 polynomial as the WAL)
   covers the 36 bytes before it. seq = 0 marks a slot never written.
   The file is mapped shared and written in place: slot (seq-1) mod
   slot-count. There is no cursor, header update, or flush on the
   record path — a reader reconstructs the ring order from the
   sequence numbers alone, and a frame the writer was killed inside
   simply fails its CRC. *)

type ba =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  fd : Unix.file_descr;
  map : ba;
  n_slots : int;
  scratch : Bytes.t;
  mutable next_seq : int;
  mutable closed : bool;
}

let magic = "ICFLT001"
let slot_size = 40
let header_size = 16
let default_slots = 4096

(* ------------------------------------------------------------ frames *)

let encode_frame scratch ~seq ~time ~kind ~a ~b =
  Bytes.set_int64_le scratch 0 (Int64.of_int seq);
  Bytes.set_int64_le scratch 8 (Int64.bits_of_float time);
  Bytes.set_int64_le scratch 16 (Int64.of_int a);
  Bytes.set_int64_le scratch 24 (Int64.of_int b);
  Bytes.set_int32_le scratch 32 (Int32.of_int (Trace.kind_to_int kind));
  Bytes.set_int32_le scratch 36 (Int32.of_int (Crc32.digest scratch 0 36))

type event = { seq : int; time : float; kind : Trace.kind; a : int; b : int }

(* [None] for an empty, torn or foreign slot *)
let decode_frame b off =
  let seq = Int64.to_int (Bytes.get_int64_le b off) in
  if seq <= 0 then None
  else begin
    let crc = Int32.to_int (Bytes.get_int32_le b (off + 36)) land 0xFFFFFFFF in
    if Crc32.digest b off 36 <> crc then None
    else
      let kind_i =
        Int32.to_int (Bytes.get_int32_le b (off + 32)) land 0xFFFFFFFF
      in
      match Trace.kind_of_int_opt kind_i with
      | None -> None
      | Some kind ->
        Some
          {
            seq;
            time = Int64.float_of_bits (Bytes.get_int64_le b (off + 8));
            kind;
            a = Int64.to_int (Bytes.get_int64_le b (off + 16));
            b = Int64.to_int (Bytes.get_int64_le b (off + 24));
          }
  end

(* ---------------------------------------------------------- the ring *)

let file_size n_slots = header_size + (n_slots * slot_size)

let map_fd fd len : ba =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.char Bigarray.c_layout true [| len |])

let blit_to_map map off b len =
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set map (off + i) (Bytes.unsafe_get b i)
  done

let read_of_map map off b len =
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get map (off + i))
  done

let get_u32_map map off =
  Char.code (Bigarray.Array1.get map off)
  lor (Char.code (Bigarray.Array1.get map (off + 1)) lsl 8)
  lor (Char.code (Bigarray.Array1.get map (off + 2)) lsl 16)
  lor (Char.code (Bigarray.Array1.get map (off + 3)) lsl 24)

let header_matches map n_slots =
  let ok = ref true in
  String.iteri
    (fun i ch -> if Bigarray.Array1.get map i <> ch then ok := false)
    magic;
  !ok && get_u32_map map 8 = n_slots && get_u32_map map 12 = slot_size

let write_header map n_slots =
  String.iteri (fun i ch -> Bigarray.Array1.set map i ch) magic;
  let set_u32 off v =
    Bigarray.Array1.set map off (Char.chr (v land 0xFF));
    Bigarray.Array1.set map (off + 1) (Char.chr ((v lsr 8) land 0xFF));
    Bigarray.Array1.set map (off + 2) (Char.chr ((v lsr 16) land 0xFF));
    Bigarray.Array1.set map (off + 3) (Char.chr ((v lsr 24) land 0xFF))
  in
  set_u32 8 n_slots;
  set_u32 12 slot_size

(* highest valid sequence number in the mapped ring (0 when empty) *)
let scan_max_seq map n_slots scratch =
  let best = ref 0 in
  for s = 0 to n_slots - 1 do
    read_of_map map (header_size + (s * slot_size)) scratch slot_size;
    match decode_frame scratch 0 with
    | Some e -> if e.seq > !best then best := e.seq
    | None -> ()
  done;
  !best

let create ?(slots = default_slots) path =
  let n_slots = max slots 16 in
  match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e))
  | fd -> (
    match
      let size = file_size n_slots in
      let existing = (Unix.fstat fd).Unix.st_size in
      let reopen = existing = size in
      if not reopen then Unix.ftruncate fd size;
      let map = map_fd fd size in
      let scratch = Bytes.create slot_size in
      let next_seq =
        if reopen && header_matches map n_slots then
          1 + scan_max_seq map n_slots scratch
        else begin
          (* fresh file, foreign content or changed geometry: wipe *)
          Bigarray.Array1.fill map '\000';
          write_header map n_slots;
          1
        end
      in
      { fd; map; n_slots; scratch; next_seq; closed = false }
    with
    | t -> Ok t
    | exception Unix.Unix_error (e, fn, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "%s: %s: %s" path fn (Unix.error_message e)))

let record t kind ~time ~a ~b =
  if not t.closed then begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let slot = (seq - 1) mod t.n_slots in
    encode_frame t.scratch ~seq ~time ~kind ~a ~b;
    blit_to_map t.map (header_size + (slot * slot_size)) t.scratch slot_size
  end

let next_seq t = t.next_seq
let slots t = t.n_slots

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* ---------------------------------------------------------- recovery *)

type dump = { d_slots : int; d_valid : int; events : event array }

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        let b = Bytes.create len in
        really_input ic b 0 len;
        b)
  with
  | exception Sys_error e -> Error e
  | b ->
    let len = Bytes.length b in
    if
      len < header_size
      || Bytes.sub_string b 0 (String.length magic) <> magic
    then Error (path ^ ": not a flight recorder (bad magic)")
    else begin
      let get_u32 off =
        Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
      in
      let n_slots = get_u32 8 in
      if get_u32 12 <> slot_size then
        Error (path ^ ": unsupported flight-recorder frame size")
      else if len < file_size n_slots then
        Error (path ^ ": flight recorder shorter than its header claims")
      else begin
        let acc = ref [] in
        let valid = ref 0 in
        for s = 0 to n_slots - 1 do
          match decode_frame b (header_size + (s * slot_size)) with
          | Some e ->
            incr valid;
            acc := e :: !acc
          | None -> ()
        done;
        let events = Array.of_list !acc in
        Array.sort (fun x y -> compare x.seq y.seq) events;
        Ok { d_slots = n_slots; d_valid = !valid; events }
      end
    end

let to_trace d =
  let tr = Trace.create ~capacity:(max 16 (Array.length d.events)) () in
  Array.iter
    (fun e -> Trace.emit tr e.kind ~time:e.time ~a:e.a ~b:e.b)
    d.events;
  tr
