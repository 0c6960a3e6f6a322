(** The server's write-ahead journal: crash durability for exactly-once
    serving.

    An append-only log of the two events that matter across a restart —
    completions applied and lease batches granted — plus periodic
    {e checkpoints} that compact the log to a single snapshot record so
    recovery replays only the tail.

    On disk: an 8-byte magic ("ICWAL001"), then
    [u32 length | u32 CRC32(payload) | payload] records, little-endian:

    - tag 1, {!Complete}: [u32 task] — the task was applied; journaled
      before the [Ack] leaves the server, so a journaled completion is
      never re-leased after a crash.
    - tag 2, {!Lease}: [u16 count, count * u32 task] — a batch was
      granted. Lease records do not affect the recovered dependence
      state (the Ready frontier is re-derived from completions); they
      exist so recovery can count how many in-flight tasks it re-issued
      ([served.recovered_reissues]).
    - tag 3, {!Checkpoint}: [u32 n, ceil(n/8) done bits, ceil(n/8)
      leased bits] — a snapshot; everything before it is redundant.

    Durability contract:
    - {b a record reaches the OS before any reply that depends on it
      leaves the server.} An {!append} outside a {!group} is flushed at
      once; inside one it is staged, and the group's end flushes every
      staged record in one write. {!Tcp.serve} answers each read's
      frames inside one group and sends the replies after it, so a
      [kill -9] loses only records whose replies were never sent.
      [~fsync:true] adds one fsync per flush (per reply batch when
      grouped) and survives machine crashes.
    - {b Checkpoints rotate, and are fsynced off the serving thread.}
      {!checkpoint} writes [PATH.tmp] (the magic and one {!Checkpoint}
      record), hard-links [PATH] to [PATH.prev], renames [PATH.tmp] over
      [PATH] and appends there. A writer domain then fsyncs the new
      file and its directory and unlinks [PATH.prev]; the caller never
      waits on the disk. In [~fsync] mode the next flush waits for that
      writer, since the records it carries may live only in the rotated
      file.
    - {b [.tmp] and [.prev].} [PATH.tmp] is a checkpoint being written:
      until it is renamed it replaced nothing, and {!open_} deletes it.
      [PATH.prev] is the last journal known durable, kept while a
      rotation's fsync is pending: {!open_} recovers from [PATH] when it
      opens with an intact {!Checkpoint}, and from [PATH.prev] when
      [PATH] is missing or its leading checkpoint is torn. Every file
      has the one format above — a rotated one simply starts with its
      checkpoint — so a journal written before rotation existed
      recovers unchanged.

    {!open_} on an existing file validates every record and {e truncates}
    the first torn or CRC-failing record and everything after it — a
    crashed append leaves an intact prefix, never a crash at recovery
    time. *)

type record =
  | Complete of int
  | Lease of int array
  | Checkpoint of { n : int; done_ : Bytes.t; leased : Bytes.t }
      (** [n] tasks; bit [v land 7] of byte [v lsr 3] is task [v]'s
          done / leased flag *)

type t

val open_ : ?fsync:bool -> ?checkpoint_every:int -> string -> (t, string) result
(** Open (creating if absent) the journal at a path. [fsync] (default
    false) syncs per flush; [checkpoint_every] (default 1024, >= 1) is
    the number of {!Complete} appends after which {!checkpoint_due}
    turns true. An existing file is scanned: its intact record prefix
    becomes {!replayed}, and any torn tail is truncated in place
    ({!truncated_bytes}). [Error] on I/O failure or a file that is not a
    journal. *)

val replayed : t -> record list
(** The records recovered at {!open_}, oldest first; [[]] for a fresh
    journal. Replay state from the {e last} {!Checkpoint} onward. *)

val truncated_bytes : t -> int
(** How many trailing bytes {!open_} discarded as torn/corrupt. *)

val path : t -> string

val append : t -> record -> unit
(** Append one record. Outside a {!group} it is flushed (+fsynced when
    configured) before [append] returns; inside one it is staged until
    the group ends. Encoding allocates nothing: the record is staged in
    one reusable buffer and its CRC taken in place. *)

val group : t -> (unit -> 'a) -> 'a
(** [group t f] runs [f] with every {!append} staged, then flushes all
    staged records in one write (+ one fsync when configured) — when
    [f] returns and when it raises. Groups nest; the outermost one
    flushes. Send replies that depend on the records only after the
    group. *)

val checkpoint_due : t -> bool
(** Have [checkpoint_every] completions been appended since the last
    checkpoint, and has the last rotation's fsync finished? While that
    fsync runs a due checkpoint is deferred (counted once in
    [checkpoints_deferred]); the count since the last checkpoint is
    kept, so it falls due again at the first completion after. The
    server consults this after each completion, before it builds the
    bitmaps. *)

val checkpoint : t -> n:int -> done_:Bytes.t -> leased:Bytes.t -> unit
(** Compact by rotation: [PATH] becomes a file holding one
    {!Checkpoint} record, and its fsync runs on a writer domain. Does
    nothing (a deferred checkpoint) while the previous rotation's fsync
    is pending. Bitmaps must be [ceil (n/8)] bytes. *)

type stats = {
  appends : int;  (** records appended *)
  writes : int;
      (** flushes that carried records: one per {!group}, one per
          ungrouped {!append} *)
  bytes : int;  (** record bytes appended, plus each rotated file *)
  checkpoints : int;  (** rotations started *)
  checkpoints_deferred : int;
      (** due checkpoints that waited on a pending fsync *)
}

val stats : t -> stats
(** Counts since {!open_}. *)

val close : t -> unit
(** Flush, wait for a pending rotation's writer (so no [PATH.prev] is
    left behind), and close. *)

(** {1 Wire-format internals, exposed for tests} *)

val bitmap_len : int -> int
(** [ceil (n/8)]. *)
