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

    Durability contract: every {!append} flushes to the OS, so a
    [kill -9] loses at most the record mid-write; [~fsync:true]
    additionally syncs the file per record and survives machine crashes.
    A checkpoint rewrites the journal through a temporary file and an
    atomic [rename], and is always fsynced.

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
    false) syncs per append; [checkpoint_every] (default 1024, >= 1) is
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
(** Append one record and flush (+fsync when configured). *)

val checkpoint_due : t -> bool
(** Have [checkpoint_every] completions been appended since the last
    checkpoint? The server consults this after each completion. *)

val checkpoint : t -> n:int -> done_:Bytes.t -> leased:Bytes.t -> unit
(** Compact: atomically replace the journal with a single
    {!Checkpoint} record (tmp write, fsync, rename). Bitmaps must be
    [ceil (n/8)] bytes. *)

val close : t -> unit

(** {1 Wire-format internals, exposed for tests} *)

val bitmap_len : int -> int
(** [ceil (n/8)]. *)
