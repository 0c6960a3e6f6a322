(* An append-only write-ahead log of the server's durable events.

   On disk: an 8-byte magic ("ICWAL001"), then records of
   [u32 payload-length | u32 CRC32(payload) | payload], all little
   endian. A payload is a 1-byte tag plus fields:

     tag 1  Complete    u32 task
     tag 2  Lease       u16 count, count * u32 task
     tag 3  Checkpoint  u32 n_tasks, ceil(n/8) done bits, ceil(n/8)
                        leased bits

   Records are flushed to the OS per append, so a [kill -9] of the
   server process loses at most the record being written; [fsync] mode
   additionally survives machine crashes. A checkpoint compacts the log
   by rewriting it as a single Checkpoint record (atomic tmp-write +
   rename), so recovery replays only the tail since the last rotation.

   [open_] scans an existing file and truncates at the first record that
   is torn (shorter than its own header says) or fails its CRC — the
   torn-write tolerance the recovery path relies on. Everything after a
   corrupt record is unrecoverable by design: records are not
   self-synchronizing, and a prefix-intact log is exactly what a crashed
   append leaves behind. *)

type record =
  | Complete of int
  | Lease of int array
  | Checkpoint of { n : int; done_ : Bytes.t; leased : Bytes.t }

let magic = "ICWAL001"

(* a Checkpoint of 2^31 tasks is ~0.5 GiB of bitmap; anything claiming
   more is corruption, not data *)
let max_record = 1 lsl 29

(* ------------------------------------------------- bytes <-> records *)

let get_u32 b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let buf_u32 buf v =
  Buffer.add_char buf (Char.chr (v land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

let bitmap_len n = (n + 7) / 8

let encode_payload buf r =
  Buffer.clear buf;
  (match r with
  | Complete v ->
    Buffer.add_char buf '\001';
    buf_u32 buf v
  | Lease tasks ->
    let c = Array.length tasks in
    if c > 0xFFFF then invalid_arg "Journal: lease record too large";
    Buffer.add_char buf '\002';
    Buffer.add_char buf (Char.chr (c land 0xFF));
    Buffer.add_char buf (Char.chr ((c lsr 8) land 0xFF));
    Array.iter (fun v -> buf_u32 buf v) tasks
  | Checkpoint { n; done_; leased } ->
    let bl = bitmap_len n in
    if Bytes.length done_ <> bl || Bytes.length leased <> bl then
      invalid_arg "Journal: checkpoint bitmap length mismatch";
    Buffer.add_char buf '\003';
    buf_u32 buf n;
    Buffer.add_bytes buf done_;
    Buffer.add_bytes buf leased)

(* [None] = malformed payload, treated exactly like a CRC failure *)
let decode_payload b off len =
  if len < 1 then None
  else
    match Bytes.get b off with
    | '\001' -> if len <> 5 then None else Some (Complete (get_u32 b (off + 1)))
    | '\002' ->
      if len < 3 then None
      else begin
        let c =
          Char.code (Bytes.get b (off + 1))
          lor (Char.code (Bytes.get b (off + 2)) lsl 8)
        in
        if len <> 3 + (4 * c) then None
        else Some (Lease (Array.init c (fun i -> get_u32 b (off + 3 + (4 * i)))))
      end
    | '\003' ->
      if len < 5 then None
      else begin
        let n = get_u32 b (off + 1) in
        let bl = bitmap_len n in
        if len <> 5 + (2 * bl) then None
        else
          Some
            (Checkpoint
               {
                 n;
                 done_ = Bytes.sub b (off + 5) bl;
                 leased = Bytes.sub b (off + 5 + bl) bl;
               })
      end
    | _ -> None

(* --------------------------------------------------------- the log *)

type t = {
  path : string;
  fsync : bool;
  checkpoint_every : int;
  mutable oc : out_channel;
  mutable since_checkpoint : int;  (* Complete records since last rotation *)
  mutable appended : int;
  replayed : record list;
  truncated_bytes : int;
  buf : Buffer.t;  (* payload staging *)
  hdr : Buffer.t;  (* header staging *)
}

let replayed t = t.replayed
let truncated_bytes t = t.truncated_bytes
let path t = t.path

let flush_channel t =
  flush t.oc;
  if t.fsync then Unix.fsync (Unix.descr_of_out_channel t.oc)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b)

(* scan an existing journal, returning the records of its intact prefix
   and the offset where that prefix ends *)
let scan b =
  let size = Bytes.length b in
  let records = ref [] in
  let pos = ref (String.length magic) in
  let ok = ref true in
  while !ok && !pos < size do
    if size - !pos < 8 then ok := false
    else begin
      let len = get_u32 b !pos in
      let crc = get_u32 b (!pos + 4) in
      if len > max_record || size - !pos - 8 < len then ok := false
      else if Ic_obs.Crc32.digest b (!pos + 8) len <> crc then ok := false
      else
        match decode_payload b (!pos + 8) len with
        | None -> ok := false
        | Some r ->
          records := r :: !records;
          pos := !pos + 8 + len
    end
  done;
  (List.rev !records, !pos)

let append_channel path =
  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

let open_ ?(fsync = false) ?(checkpoint_every = 1024) path =
  if checkpoint_every < 1 then
    invalid_arg "Journal.open_: checkpoint_every must be >= 1";
  if not (Sys.file_exists path) then begin
    match
      let oc = open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_binary ] 0o644 path in
      output_string oc magic;
      flush oc;
      if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
      oc
    with
    | oc ->
      Ok
        {
          path;
          fsync;
          checkpoint_every;
          oc;
          since_checkpoint = 0;
          appended = 0;
          replayed = [];
          truncated_bytes = 0;
          buf = Buffer.create 256;
          hdr = Buffer.create 16;
        }
    | exception Sys_error e -> Error e
  end
  else begin
    match read_file path with
    | exception Sys_error e -> Error e
    | b ->
      let size = Bytes.length b in
      if size = 0 then begin
        (* an existing-but-empty file (Filename.temp_file, touch) is a
           fresh journal, not a torn one *)
        match append_channel path with
        | exception Sys_error e -> Error e
        | oc ->
          output_string oc magic;
          flush oc;
          if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
          Ok
            {
              path;
              fsync;
              checkpoint_every;
              oc;
              since_checkpoint = 0;
              appended = 0;
              replayed = [];
              truncated_bytes = 0;
              buf = Buffer.create 256;
              hdr = Buffer.create 16;
            }
      end
      else if size < String.length magic
              || Bytes.sub_string b 0 (String.length magic) <> magic
      then Error (path ^ ": not a journal (bad magic)")
      else begin
        let records, good_end = scan b in
        let truncated = size - good_end in
        (* drop the torn/corrupt tail before appending after it *)
        match
          if truncated > 0 then begin
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () -> Unix.ftruncate fd good_end)
          end
        with
        | exception Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
        | () -> (
          match append_channel path with
          | exception Sys_error e -> Error e
          | oc ->
          Ok
            {
              path;
              fsync;
              checkpoint_every;
              oc;
              since_checkpoint = 0;
              appended = 0;
              replayed = records;
              truncated_bytes = truncated;
              buf = Buffer.create 256;
              hdr = Buffer.create 16;
            })
      end
  end

let write_record oc hdr payload =
  let b = Buffer.to_bytes payload in
  let len = Bytes.length b in
  Buffer.clear hdr;
  buf_u32 hdr len;
  buf_u32 hdr (Ic_obs.Crc32.digest b 0 len);
  Buffer.add_buffer hdr payload;
  Buffer.output_buffer oc hdr

let append t r =
  encode_payload t.buf r;
  write_record t.oc t.hdr t.buf;
  flush_channel t;
  t.appended <- t.appended + 1;
  match r with
  | Complete _ -> t.since_checkpoint <- t.since_checkpoint + 1
  | Checkpoint _ -> t.since_checkpoint <- 0
  | Lease _ -> ()

let checkpoint_due t = t.since_checkpoint >= t.checkpoint_every

(* compaction: rewrite the whole log as one Checkpoint via tmp + atomic
   rename; the checkpoint is always fsynced — rotation is rare and a
   half-written replacement journal would be a self-inflicted tear *)
let checkpoint t ~n ~done_ ~leased =
  let tmp = t.path ^ ".tmp" in
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 tmp
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc magic;
      encode_payload t.buf (Checkpoint { n; done_; leased });
      write_record oc t.hdr t.buf;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  close_out_noerr t.oc;
  Sys.rename tmp t.path;
  t.oc <- append_channel t.path;
  t.since_checkpoint <- 0

let close t =
  (try flush_channel t with Sys_error _ | Unix.Unix_error _ -> ());
  close_out_noerr t.oc
