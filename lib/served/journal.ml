(* An append-only write-ahead log of the server's durable events.

   On disk: an 8-byte magic ("ICWAL001"), then records of
   [u32 payload-length | u32 CRC32(payload) | payload], all little
   endian. A payload is a 1-byte tag plus fields:

     tag 1  Complete    u32 task
     tag 2  Lease       u16 count, count * u32 task
     tag 3  Checkpoint  u32 n_tasks, ceil(n/8) done bits, ceil(n/8)
                        leased bits

   A record is staged in one reusable buffer (header, payload, CRC taken
   in place) and copied into the channel; it reaches the OS at the next
   commit: after every ungrouped [append], or once when a [group] ends.
   So a [kill -9] loses only records whose replies were never sent.

   A checkpoint rotates the log: it writes PATH.tmp (magic + one
   Checkpoint record), hard-links PATH to PATH.prev, renames PATH.tmp
   over PATH and appends there from then on. A writer domain then
   fsyncs the new file and its directory and unlinks PATH.prev, so the
   serving thread never waits on the disk; a checkpoint that falls due
   while that fsync runs waits for the next completion after it.

   [open_] first settles what an interrupted rotation left behind (a
   stray PATH.tmp, a PATH.prev beside a complete or torn PATH), then
   scans the one file left and truncates at the first record that is
   torn (shorter than its own header says) or fails its CRC — the
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

let set_u8 b off v = Bytes.set b off (Char.unsafe_chr (v land 0xFF))

let set_u32 b off v =
  set_u8 b off v;
  set_u8 b (off + 1) (v lsr 8);
  set_u8 b (off + 2) (v lsr 16);
  set_u8 b (off + 3) (v lsr 24)

let bitmap_len n = (n + 7) / 8

let payload_len = function
  | Complete _ -> 5
  | Lease tasks -> 3 + (4 * Array.length tasks)
  | Checkpoint { n; _ } -> 5 + (2 * bitmap_len n)

(* the whole record — header, payload, CRC over the payload in place —
   into [b] from offset 0; [b] holds at least [8 + payload_len r] bytes *)
let encode b r =
  let len = payload_len r in
  (match r with
  | Complete v ->
    Bytes.set b 8 '\001';
    set_u32 b 9 v
  | Lease tasks ->
    let c = Array.length tasks in
    if c > 0xFFFF then invalid_arg "Journal: lease record too large";
    Bytes.set b 8 '\002';
    set_u8 b 9 c;
    set_u8 b 10 (c lsr 8);
    for i = 0 to c - 1 do
      set_u32 b (11 + (4 * i)) tasks.(i)
    done
  | Checkpoint { n; done_; leased } ->
    let bl = bitmap_len n in
    if Bytes.length done_ <> bl || Bytes.length leased <> bl then
      invalid_arg "Journal: checkpoint bitmap length mismatch";
    Bytes.set b 8 '\003';
    set_u32 b 9 n;
    Bytes.blit done_ 0 b 13 bl;
    Bytes.blit leased 0 b (13 + bl) bl);
  set_u32 b 0 len;
  set_u32 b 4 (Ic_obs.Crc32.digest b 8 len);
  8 + len

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

(* the intact record at [pos] and the offset after it *)
let record_at b pos =
  let size = Bytes.length b in
  if size - pos < 8 then None
  else
    let len = get_u32 b pos in
    if len > max_record || size - pos - 8 < len then None
    else if Ic_obs.Crc32.digest b (pos + 8) len <> get_u32 b (pos + 4) then None
    else Option.map (fun r -> (r, pos + 8 + len)) (decode_payload b (pos + 8) len)

(* the records of a journal's intact prefix and the offset where that
   prefix ends *)
let scan b =
  let rec go acc pos =
    match record_at b pos with
    | Some (r, next) -> go (r :: acc) next
    | None -> (List.rev acc, pos)
  in
  go [] (String.length magic)

let has_magic b =
  Bytes.length b >= String.length magic
  && Bytes.sub_string b 0 (String.length magic) = magic

(* a rotated file opens with its checkpoint; until that record is
   intact the file cannot stand in for PATH.prev *)
let leads_with_checkpoint b =
  has_magic b
  &&
  match record_at b (String.length magic) with
  | Some (Checkpoint _, _) -> true
  | _ -> false

(* --------------------------------------------------------- the log *)

type stats = {
  appends : int;
  writes : int;
  bytes : int;
  checkpoints : int;
  checkpoints_deferred : int;
}

type t = {
  path : string;
  fsync : bool;
  checkpoint_every : int;
  mutable oc : out_channel;
  mutable since_checkpoint : int;  (* Complete records since last rotation *)
  replayed : record list;
  truncated_bytes : int;
  mutable stage : Bytes.t;  (* one encoded record; grows to the largest *)
  mutable depth : int;  (* nesting of [group] *)
  mutable dirty : bool;  (* records appended since the last commit *)
  (* true while a rotation's writer has not finished; [lock]/[synced]
     let a caller wait for it from any domain *)
  syncing : bool Atomic.t;
  lock : Mutex.t;
  synced : Condition.t;
  mutable deferring : bool;  (* the due checkpoint is already counted *)
  mutable appends : int;
  mutable writes : int;
  mutable bytes : int;
  mutable checkpoints : int;
  mutable checkpoints_deferred : int;
}

let replayed t = t.replayed
let truncated_bytes t = t.truncated_bytes
let path t = t.path
let prev_path path = path ^ ".prev"
let tmp_path path = path ^ ".tmp"

let stats t =
  {
    appends = t.appends;
    writes = t.writes;
    bytes = t.bytes;
    checkpoints = t.checkpoints;
    checkpoints_deferred = t.checkpoints_deferred;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let b = Bytes.create len in
      really_input ic b 0 len;
      b)

let remove_if_present path =
  try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fsync_path path =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  (* some file systems refuse to sync a directory; the rename is then as
     durable as they make it *)
  (try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ());
  Unix.close fd

(* Undo what a rotation cut short, and return the contents of the one
   journal file left ([None]: there is none). A PATH that opens with an
   intact checkpoint is the newer state; otherwise PATH.prev is the
   last complete one. A lone PATH.tmp never replaced anything. *)
let settle path =
  let prev = prev_path path in
  remove_if_present (tmp_path path);
  let current = if Sys.file_exists path then Some (read_file path) else None in
  if not (Sys.file_exists prev) then current
  else
    match current with
    | Some b when leads_with_checkpoint b ->
      fsync_path path;
      remove_if_present prev;
      current
    | _ ->
      Sys.rename prev path;
      (* a rename between two links of one file does nothing *)
      remove_if_present prev;
      Some (read_file path)

let append_channel path =
  open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path

let open_ ?(fsync = false) ?(checkpoint_every = 1024) path =
  if checkpoint_every < 1 then
    invalid_arg "Journal.open_: checkpoint_every must be >= 1";
  let make oc replayed truncated_bytes =
    {
      path;
      fsync;
      checkpoint_every;
      oc;
      since_checkpoint = 0;
      replayed;
      truncated_bytes;
      stage = Bytes.create 256;
      depth = 0;
      dirty = false;
      syncing = Atomic.make false;
      lock = Mutex.create ();
      synced = Condition.create ();
      deferring = false;
      appends = 0;
      writes = 0;
      bytes = 0;
      checkpoints = 0;
      checkpoints_deferred = 0;
    }
  in
  match settle path with
  | exception Sys_error e -> Error e
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | Some b when Bytes.length b > 0 && not (has_magic b) ->
    Error (path ^ ": not a journal (bad magic)")
  | Some b when Bytes.length b > 0 -> (
    let records, good_end = scan b in
    let truncated = Bytes.length b - good_end in
    (* drop the torn/corrupt tail before appending after it *)
    match
      if truncated > 0 then begin
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> Unix.ftruncate fd good_end)
      end;
      append_channel path
    with
    | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
    | exception Sys_error e -> Error e
    | oc -> Ok (make oc records truncated))
  | _ -> (
    (* no file, or an existing-but-empty one (Filename.temp_file,
       touch): a fresh journal, not a torn one *)
    match
      let oc =
        open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644
          path
      in
      output_string oc magic;
      flush oc;
      if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
      oc
    with
    | oc -> Ok (make oc [] 0)
    | exception Sys_error e -> Error e)

(* ------------------------------------------------- commits and groups *)

let await_sync t =
  if Atomic.get t.syncing then begin
    Mutex.lock t.lock;
    while Atomic.get t.syncing do
      Condition.wait t.synced t.lock
    done;
    Mutex.unlock t.lock
  end

(* hand what was appended since the last commit to the OS. In [fsync]
   mode those records may sit in a rotated file whose own fsync (and
   its directory's) is still running, so a commit waits for it first *)
let commit t =
  if t.dirty then begin
    t.dirty <- false;
    t.writes <- t.writes + 1;
    flush t.oc;
    if t.fsync then begin
      await_sync t;
      Unix.fsync (Unix.descr_of_out_channel t.oc)
    end
  end

let group t f =
  t.depth <- t.depth + 1;
  let finish () =
    t.depth <- t.depth - 1;
    if t.depth = 0 then commit t
  in
  match f () with
  | x ->
    finish ();
    x
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish ();
    Printexc.raise_with_backtrace e bt

(* encode [r] into the stage, grown to fit; its length *)
let stage t r =
  let need = 8 + payload_len r in
  if Bytes.length t.stage < need then
    t.stage <- Bytes.create (max need (2 * Bytes.length t.stage));
  encode t.stage r

let append t r =
  let len = stage t r in
  output t.oc t.stage 0 len;
  t.appends <- t.appends + 1;
  t.bytes <- t.bytes + len;
  t.dirty <- true;
  if t.depth = 0 then commit t;
  match r with
  | Complete _ -> t.since_checkpoint <- t.since_checkpoint + 1
  | Checkpoint _ -> t.since_checkpoint <- 0
  | Lease _ -> ()

(* ------------------------------------------------------ checkpoints *)

(* Is a rotation's writer still running? A checkpoint that falls due
   meanwhile is deferred, counted once however often it is asked for. *)
let rotating t =
  Atomic.get t.syncing
  && begin
       if not t.deferring then begin
         t.deferring <- true;
         t.checkpoints_deferred <- t.checkpoints_deferred + 1
       end;
       true
     end

let checkpoint_due t =
  t.since_checkpoint >= t.checkpoint_every && not (rotating t)

(* The writer: one domain, started at the process's first rotation,
   runs every rotation's fsync in turn. A domain, not a systhread:
   once a domain has a second thread, every blocking call in it goes
   through the master lock, which cost the socket server about a
   quarter of its throughput. One for the process, not one per
   rotation: that was no faster and added ~3 MiB of peak RSS to a
   drain (both measured on tcp-durable, 2-vCPU host). *)
let jobs : (unit -> unit) Queue.t = Queue.create ()
let jobs_lock = Mutex.create ()
let jobs_ready = Condition.create ()
let writer_started = ref false  (* under [jobs_lock] *)

let rec run_jobs () =
  Mutex.lock jobs_lock;
  while Queue.is_empty jobs do
    Condition.wait jobs_ready jobs_lock
  done;
  let job = Queue.pop jobs in
  Mutex.unlock jobs_lock;
  job ();
  run_jobs ()

let submit job =
  Mutex.lock jobs_lock;
  let start = not !writer_started in
  writer_started := true;
  Queue.push job jobs;
  Condition.signal jobs_ready;
  Mutex.unlock jobs_lock;
  if start then
    try ignore (Domain.spawn run_jobs)
    with Failure _ ->
      (* no domain to spare: the caller runs what is queued *)
      Mutex.lock jobs_lock;
      writer_started := false;
      let queued = Queue.copy jobs in
      Queue.clear jobs;
      Mutex.unlock jobs_lock;
      Queue.iter (fun job -> job ()) queued

(* one rotation's job: make the rotated file and its name durable, then
   retire PATH.prev. It may outlive its journal (a server dropped
   without [close]), by which time a later [open_] may have settled
   PATH.prev already. On a failed fsync PATH.prev stays: recovery still
   has it. *)
let sync_rotation t fd () =
  (match
     Unix.fsync fd;
     fsync_path (Filename.dirname t.path)
   with
  | () -> remove_if_present (prev_path t.path)
  | exception Unix.Unix_error _ -> ());
  Mutex.lock t.lock;
  Atomic.set t.syncing false;
  Condition.broadcast t.synced;
  Mutex.unlock t.lock

let checkpoint t ~n ~done_ ~leased =
  if not (rotating t) then begin
    let len = stage t (Checkpoint { n; done_; leased }) in
    let tmp = tmp_path t.path in
    let oc =
      open_out_gen
        [ Open_wronly; Open_creat; Open_trunc; Open_append; Open_binary ]
        0o644 tmp
    in
    (match
       output_string oc magic;
       output oc t.stage 0 len;
       flush oc
     with
    | () -> ()
    | exception e ->
      close_out_noerr oc;
      raise e);
    let prev = prev_path t.path in
    remove_if_present prev;
    Unix.link t.path prev;
    Sys.rename tmp t.path;
    (* records staged before the checkpoint land in PATH.prev: the
       checkpoint already covers them *)
    close_out_noerr t.oc;
    t.oc <- oc;
    t.since_checkpoint <- 0;
    t.deferring <- false;
    t.checkpoints <- t.checkpoints + 1;
    t.bytes <- t.bytes + String.length magic + len;
    Atomic.set t.syncing true;
    submit (sync_rotation t (Unix.descr_of_out_channel oc))
  end

let close t =
  (try commit t with Sys_error _ | Unix.Unix_error _ -> ());
  await_sync t;
  close_out_noerr t.oc
