(** CRC-32 (the zlib/PNG polynomial 0xEDB88320), the frame checksum of
    both on-disk formats: the serving journal and the flight recorder. *)

val digest : Bytes.t -> int -> int -> int
(** [digest b off len] is the CRC-32 of [len] bytes of [b] from [off]. *)
