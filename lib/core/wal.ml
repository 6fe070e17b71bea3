(* Checksummed write-ahead log with a doublewrite slot.

   The log is a byte image of records [len:4 LE][payload][crc:4 LE], the
   CRC-32 taken over the payload alone. Every append first writes the
   complete record image to a single doublewrite slot, then appends it to
   the main image — so a crash tearing the write in progress damages at
   most one of the two copies (the fault plan draws exactly one tear per
   log per crash, hitting either the slot or the main tail, mirroring a
   real torn sector). [scan] walks the image front to back, truncates at
   the first record that fails its length or checksum check, and repairs
   the lost tail from the slot when the slot holds a valid record the
   scanned log no longer ends with. Recovery is therefore lossless for
   every single-tear schedule — provided the scan runs before the next
   append, which would overwrite the slot's copy of the torn record
   (the runtime anchors the scan to the crash event for exactly this
   reason). *)

let len_bytes = 4
let crc_bytes = 4

type t = {
  mutable data : Bytes.t;  (* main log image, a concatenation of records *)
  mutable used : int;  (* live prefix of [data] *)
  mutable slot : Bytes.t;  (* doublewrite copy of the last appended record *)
  mutable slot_used : int;
  mutable count : int;  (* records in the live prefix *)
  mutable opened : int;  (* offset of the record [reserve] opened, or -1 *)
}

let create () =
  {
    data = Bytes.create 256;
    used = 0;
    slot = Bytes.create 64;
    slot_used = 0;
    count = 0;
    opened = -1;
  }

let size t = t.used
let count t = t.count

let reset t =
  t.used <- 0;
  t.slot_used <- 0;
  t.count <- 0;
  t.opened <- -1

let put_u32 b ~pos v =
  for i = 0 to 3 do
    Bytes.set b (pos + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

(* Written out byte by byte: a local [byte] helper would be a closure
   allocated on every call. *)
let get_u32 b ~pos =
  Char.code (Bytes.get b pos)
  lor (Char.code (Bytes.get b (pos + 1)) lsl 8)
  lor (Char.code (Bytes.get b (pos + 2)) lsl 16)
  lor (Char.code (Bytes.get b (pos + 3)) lsl 24)

let ensure b used extra =
  let cap = Bytes.length b in
  if used + extra <= cap then b
  else begin
    let b' = Bytes.create (max (used + extra) (2 * cap)) in
    Bytes.blit b 0 b' 0 used;
    b'
  end

(* A record is built in place past the live prefix: [reserve] writes its
   length prefix and returns where its payload goes, the caller writes the
   payload, and [commit] appends the CRC. *)
let reserve t n =
  if t.opened >= 0 then invalid_arg "Wal.reserve: a record is already open";
  t.data <- ensure t.data t.used (len_bytes + n + crc_bytes);
  put_u32 t.data ~pos:t.used n;
  t.opened <- t.used;
  t.used + len_bytes

let image t = t.data

(* Doublewrite order: the record is copied to the slot before the live
   prefix grows over it, so the torn main tail is always recoverable from
   the slot. *)
let commit t =
  let off = t.opened in
  if off < 0 then invalid_arg "Wal.commit: no record is open";
  t.opened <- -1;
  let n = get_u32 t.data ~pos:off in
  put_u32 t.data ~pos:(off + len_bytes + n)
    (Dpa_util.Crc.digest_sub t.data ~pos:(off + len_bytes) ~len:n);
  let len = len_bytes + n + crc_bytes in
  t.slot <- ensure t.slot 0 len;
  Bytes.blit t.data off t.slot 0 len;
  t.slot_used <- len;
  t.used <- off + len;
  t.count <- t.count + 1

let append t payload =
  let n = Bytes.length payload in
  let pos = reserve t n in
  Bytes.blit payload 0 t.data pos n;
  commit t

(* Offset of the last record in the live image, or None when empty.
   Walks the whole image — only called on the tear path, never in the
   append fast path. *)
let last_record_off t =
  let rec walk off last =
    if off >= t.used then last
    else
      let n = get_u32 t.data ~pos:off in
      walk (off + len_bytes + n + crc_bytes) (Some off)
  in
  walk 0 None

let flip_bit b ~base ~len ~pos =
  let bit = pos mod (8 * len) in
  let off = base + (bit / 8) in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (bit mod 8))))

(* Apply one crash's torn-write damage. [slot] picks the doublewrite slot
   over the main tail; [flip] a bit-flip over a truncation; [pos] seeds
   where. Returns whether anything was actually damaged (an empty log or
   slot absorbs the tear harmlessly). *)
let tear t ~slot ~flip ~pos =
  if slot then
    if t.slot_used = 0 then false
    else if flip then begin
      flip_bit t.slot ~base:0 ~len:t.slot_used ~pos;
      true
    end
    else begin
      (* Torn slot write: lose between one byte and the whole slot. *)
      t.slot_used <- t.slot_used - 1 - (pos mod t.slot_used);
      true
    end
  else
    match last_record_off t with
    | None -> false
    | Some off ->
      let rec_len = t.used - off in
      if flip then begin
        flip_bit t.data ~base:off ~len:rec_len ~pos;
        true
      end
      else begin
        (* Torn tail write: the last record loses between one byte and
           its whole image. *)
        t.used <- t.used - 1 - (pos mod rec_len);
        (* The record count no longer matches the image; scan rebuilds
           it, and nothing reads [count] between crash and scan. *)
        true
      end

(* The offset past the record at [off] when its length is sane and its
   checksum verifies, else -1. *)
let next_valid t ~off =
  if off + len_bytes + crc_bytes > t.used then -1
  else
    let n = get_u32 t.data ~pos:off in
    let next = off + len_bytes + n + crc_bytes in
    if n < 0 || next > t.used then -1
    else
      let stored = get_u32 t.data ~pos:(off + len_bytes + n) in
      if Dpa_util.Crc.digest_sub t.data ~pos:(off + len_bytes) ~len:n <> stored
      then -1
      else next

let fold t f acc =
  let rec walk off acc =
    let next = next_valid t ~off in
    if next < 0 then acc
    else
      walk next
        (f t.data (off + len_bytes) (next - off - len_bytes - crc_bytes) acc)
  in
  walk 0 acc

let payload t ~off =
  Bytes.sub t.data (off + len_bytes) (get_u32 t.data ~pos:off)

(* Does the slot hold one complete, checksum-valid record? *)
let slot_record t =
  if t.slot_used < len_bytes + crc_bytes then None
  else
    let n = get_u32 t.slot ~pos:0 in
    if n < 0 || len_bytes + n + crc_bytes <> t.slot_used then None
    else
      let stored = get_u32 t.slot ~pos:(len_bytes + n) in
      if Dpa_util.Crc.digest_sub t.slot ~pos:len_bytes ~len:n <> stored then
        None
      else Some (Bytes.sub t.slot len_bytes n)

type scan_result = { truncated : int; repaired : int }

let scan t =
  let rec walk off last n =
    let next = next_valid t ~off in
    if next < 0 then (off, last, n) else walk next off (n + 1)
  in
  let good_end, last, n = walk 0 (-1) 0 in
  let truncated = if good_end < t.used then 1 else 0 in
  t.used <- good_end;
  t.count <- n;
  let repaired =
    match slot_record t with
    | Some p when last < 0 || not (Bytes.equal p (payload t ~off:last)) ->
      (* The slot's record never made it (or was torn back out): the
         doublewrite copy is the durable truth — re-append it. *)
      append t p;
      1
    | _ -> 0
  in
  { truncated; repaired }
