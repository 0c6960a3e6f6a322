(** The served wire protocol: length-prefixed binary frames.

    A frame is a 4-byte little-endian unsigned payload length followed
    by the payload: a 1-byte message tag and the message's fields
    (unsigned 32-bit little-endian integers, 16-bit for lease batch
    sizes, IEEE-754 64-bit little-endian for durations). Frames are
    bounded by {!max_frame}; a {!Lease} carries at most
    {!max_lease_tasks} task ids. The protocol is strict
    request/response: every client message is answered by exactly one
    server message, in order, so a connection multiplexing many virtual
    workers matches replies to requests FIFO.

    Decoding never raises: any byte sequence either yields a message, a
    need-more-data indication, or a descriptive error (bad tag,
    oversized frame, field values out of range, trailing bytes inside a
    frame). The property suite round-trips every message type and
    fuzzes truncations. *)

type msg =
  | Hello of { worker : int }  (** client: announce worker id *)
  | Lease_req of { worker : int; k : int }
      (** client: lease up to [k] eligible tasks ([1 <= k <= 65535]) *)
  | Complete of { worker : int; task : int }
      (** client: [task]'s payload finished *)
  | Heartbeat of { worker : int }
      (** client: still alive; renews the worker's outstanding leases *)
  | Drain  (** client/operator: stop issuing new leases *)
  | Welcome of { n_tasks : int; n_shards : int }  (** server: reply to Hello *)
  | Lease of { tasks : int array; expires_in_s : float }
      (** server: leased batch; re-issued unless completed within
          [expires_in_s] (infinity = no expiry) *)
  | Retry_after of { delay_s : float }
      (** server: backpressure — nothing leasable now, ask again later *)
  | Done of { completed : int; reissues : int }
      (** server: every task is complete (or the server is draining) *)
  | Ack  (** server: reply to Complete/Heartbeat when work remains *)

val max_frame : int
(** Upper bound on a payload length (1 MiB); a length prefix above it is
    rejected without buffering the body. *)

val max_lease_tasks : int
(** Upper bound on tasks per {!Lease} (4096). *)

val max_u32 : int
(** Largest worker/task/count value the wire carries. *)

val encode : Buffer.t -> msg -> unit
(** Append one full frame. Raises [Invalid_argument] on out-of-range
    fields (negative ids, ids above {!max_u32}, oversized lease), before
    appending anything: a rejected message leaves the buffer as it was. *)

val to_string : msg -> string
(** {!encode} into a fresh string. *)

val decode_frame :
  Bytes.t -> pos:int -> avail:int ->
  [ `Msg of msg * int | `Need_more | `Error of string ]
(** Decode one frame starting at [pos] with [avail] readable bytes.
    [`Msg (m, consumed)] consumed [consumed] bytes; [`Need_more] means
    the frame is incomplete (read more and retry); [`Error] frames are
    unrecoverable for the connection (corrupt length, unknown tag,
    truncated or trailing payload bytes). Never raises. *)

(** Incremental frame reader for a byte stream: feed raw reads, pull
    decoded messages. *)
module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> Bytes.t -> int -> int -> unit
  (** [feed t buf off len] appends [len] bytes of [buf] at [off]. *)

  val next : t -> (msg option, string) result
  (** The next complete message, [Ok None] when more bytes are needed,
      [Error] on a corrupt stream (the connection should be dropped —
      subsequent bytes cannot be re-synchronized). *)

  val pending_bytes : t -> int
end
