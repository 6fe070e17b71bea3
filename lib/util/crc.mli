(** CRC-32 (IEEE 802.3), the checksum behind the integrity fault classes.

    Both the wire framing ({!Dpa_msg.Wire}) and the write-ahead log
    ({!Dpa.Wal}) fence their payloads with this digest. CRC-32 detects
    {e every} single-bit error regardless of message length (the generator
    polynomial has more than one term), which is exactly the guarantee the
    deterministic corruption fault class needs: an injected bit-flip is
    never silently accepted. *)

val digest_sub : Bytes.t -> pos:int -> len:int -> int
(** Digest of [len] bytes starting at [pos], as a non-negative 32-bit
    value. [Invalid_argument] when the range falls outside the buffer. *)

val digest_sub_bytewise : Bytes.t -> pos:int -> len:int -> int
(** {!digest_sub} computed one byte per table lookup, the textbook loop:
    the reference {!digest_sub}'s slicing-by-8 loop is tested against. *)
