(** Checksum-fenced framing of transport envelopes.

    The simulated network carries no real payload bytes, so the corruption
    fault class materializes each physical transmission as a {e frame}: the
    envelope header (src, dst, seq, incarnation, byte count) packed
    little-endian, a deterministic payload image derived from the header
    (capped, so framing cost is O(1) regardless of message size), and a
    CRC-32 trailer ({!Dpa_util.Crc}). {!seal} computes the checksum at
    first wire-out; {!verify} re-computes it at NIC delivery. A frame that
    fails verification models a corrupted copy: the transport counts and
    drops it — no ack, no handler — and the retransmission machinery
    recovers it as a loss (DESIGN.md §13).

    CRC-32 detects every single-bit error, so {!flip_bit} followed by
    {!verify} is [false] for {e any} bit position — the avalanche property
    test/test_integrity.ml checks exhaustively. *)

val frame : src:int -> dst:int -> seq:int -> inc:int -> bytes:int -> Bytes.t
(** Materialize one envelope copy, checksum field zeroed. *)

val seal : Bytes.t -> unit
(** Compute the CRC of everything before the trailer and store it there. *)

val verify : Bytes.t -> bool
(** Recompute and compare the trailer checksum. *)

(** {2 Framing into a reused buffer}

    The transport frames each copy and ack the fault plan corrupts into
    one scratch buffer per engine: the same bytes as {!frame}, sealed,
    flipped and verified in place, so a transmission allocates no frame. *)

val max_frame_len : int
(** The longest frame: a buffer this long holds any envelope's frame. *)

val frame_into :
  Bytes.t -> src:int -> dst:int -> seq:int -> inc:int -> bytes:int -> int
(** Write {!frame}'s bytes into the buffer's prefix and return their
    length. [Invalid_argument] when the buffer is too short. *)

val seal_prefix : Bytes.t -> len:int -> unit
(** {!seal} the frame held in the first [len] bytes. *)

val verify_prefix : Bytes.t -> len:int -> bool
(** {!verify} the frame held in the first [len] bytes. *)

val flip_bit_prefix : Bytes.t -> len:int -> int -> unit
(** {!flip_bit} within the frame held in the first [len] bytes. *)
