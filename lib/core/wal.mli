(** Checksummed write-ahead log with a doublewrite slot.

    The runtime's durable logs — the per-node update-WAL (rebuilt batches
    to re-send after a crash) and the per-owner applied-batch journal
    (cross-incarnation exactly-once) — are byte images of records
    [[len][payload][crc]], the CRC-32 ({!Dpa_util.Crc}) over the payload.
    Every {!append} writes the complete record image to a single
    {e doublewrite slot} first, then to the main image, so the torn-write
    fault class ({!Dpa_sim.Fault.spec}[.torn_wal]), which damages exactly
    one of the two copies per crash, can never destroy a record both
    places: {!scan} truncates the main image at the first record that
    fails its length or checksum check and re-appends the lost tail from
    the slot whenever the slot holds a valid record the log no longer
    ends with. Recovery is lossless for every single-tear schedule,
    provided the scan runs before the next {!append} (which overwrites
    the slot) — the property test/test_integrity.ml exercises at every
    byte boundary of the tail record.

    Consecutive records must differ (true of every runtime codec: batch
    and journal records embed monotone ids) — a tail record that is
    byte-identical to its predecessor would make the torn tail
    indistinguishable from an already-complete log. *)

type t

val create : unit -> t

val append : t -> Bytes.t -> unit
(** Durably append one record: slot first, then the main image. *)

(** {2 Records built in place}

    A codec that writes its payload straight into the log image appends
    without building the payload first: {!reserve}, write, {!commit}
    leave the image and slot {!append} of the same payload leaves. *)

val reserve : t -> int -> int
(** [reserve t n] opens a record with an [n]-byte payload at the end of
    the log and returns the payload's offset in {!image}. Raises
    [Invalid_argument] while another record is open. *)

val image : t -> Bytes.t
(** The main log image. The bytes a {!reserve} returned are the caller's
    to write until {!commit}; the image may be replaced by the next
    {!reserve} or {!append}. *)

val commit : t -> unit
(** Checksum the open record and append it durably: slot first, then the
    main image. *)

val fold : t -> (Bytes.t -> int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold t f acc] applies [f image pos len] to the payload of every
    checksum-valid record — its offset in the image and its length —
    front to back, stopping at the first invalid one (without truncating
    — use {!scan} to recover). *)

val count : t -> int
(** Records in the live image. Not meaningful between a {!tear} and the
    next {!scan}. *)

val size : t -> int
(** Bytes in the live image. *)

val reset : t -> unit
(** Discard all records — the phase barrier calls this once quiescence
    certifies every appended batch acknowledged and applied. *)

val tear : t -> slot:bool -> flip:bool -> pos:int -> bool
(** Apply one crash's torn-write damage, as drawn by
    {!Dpa_sim.Fault.draw_tears}: [slot] hits the doublewrite slot rather
    than the main tail, [flip] flips one bit rather than truncating, and
    [pos] seeds the position (bit index or bytes torn off, reduced mod
    the target's size). Returns [false] when there was nothing to damage
    (empty log or slot) — the tear is absorbed harmlessly. *)

type scan_result = {
  truncated : int;  (** 1 if the scan cut a damaged tail, else 0 *)
  repaired : int;  (** 1 if the doublewrite slot restored the tail *)
}

val scan : t -> scan_result
(** Crash-recovery integrity walk: verify every record front to back,
    truncate the image at the first bad one, then repair from the slot
    when it holds a valid record the log does not end with. Leaves the
    log consistent for further appends. Idempotent: a second scan finds
    nothing to truncate or repair. {!fold} then reads the surviving
    records. *)
