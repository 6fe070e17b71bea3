(* Checksum-fenced wire framing for the corruption fault class.

   The simulator never serializes application payloads — [bytes] is an
   accounting quantity — so a frame is a deterministic materialization of
   the envelope: the header fields packed little-endian, a synthetic
   payload image derived from them (capped at [max_payload_image] so
   framing cost stays O(1) per transmission however large the bulk
   reply), and a CRC-32 trailer sealed at first wire-out. The image is a
   pure function of the header, which is all the fault class needs: a
   seeded bit-flip anywhere in the frame must be detectable at NIC
   delivery, and CRC-32 guarantees detection of any single-bit error. *)

let header_fields = 5 (* src, dst, seq, inc, bytes *)
let field_bytes = 8
let crc_bytes = 4
let max_payload_image = 64

let put_u64 b ~pos v =
  for i = 0 to 7 do
    Bytes.unsafe_set b (pos + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
  done

(* splitmix64-style finalizer over native ints: cheap, and every header
   bit diffuses into every image byte. *)
let mix z =
  let z = (z lxor (z lsr 30)) * 0x4be98134a5976fd3 in
  let z = (z lxor (z lsr 27)) * 0x3bd4b2cfa9a275ab in
  z lxor (z lsr 31)

let frame_len ~bytes =
  (header_fields * field_bytes) + min (max 0 bytes) max_payload_image + crc_bytes

let max_frame_len = frame_len ~bytes:max_payload_image

let frame_into b ~src ~dst ~seq ~inc ~bytes =
  let total = frame_len ~bytes in
  if Bytes.length b < total then invalid_arg "Wire.frame_into: buffer too short";
  let image = total - (header_fields * field_bytes) - crc_bytes in
  put_u64 b ~pos:0 src;
  put_u64 b ~pos:8 dst;
  put_u64 b ~pos:16 seq;
  put_u64 b ~pos:24 inc;
  put_u64 b ~pos:32 bytes;
  let seed = mix (src lxor (dst lsl 16) lxor (seq lsl 32) lxor (inc lsl 48) lxor bytes) in
  for i = 0 to image - 1 do
    Bytes.unsafe_set b
      (40 + i)
      (Char.unsafe_chr (mix (seed + i) land 0xFF))
  done;
  (* The CRC field starts zeroed (a fresh or reused buffer holds anything);
     [seal] fills it. *)
  Bytes.fill b (total - crc_bytes) crc_bytes '\000';
  total

let frame ~src ~dst ~seq ~inc ~bytes =
  let b = Bytes.create (frame_len ~bytes) in
  ignore (frame_into b ~src ~dst ~seq ~inc ~bytes);
  b

let seal_prefix b ~len =
  let base = len - crc_bytes in
  let crc = Dpa_util.Crc.digest_sub b ~pos:0 ~len:base in
  for i = 0 to crc_bytes - 1 do
    Bytes.set b (base + i) (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done

let verify_prefix b ~len =
  len > crc_bytes
  && len <= Bytes.length b
  &&
  let base = len - crc_bytes in
  let stored = ref 0 in
  for i = crc_bytes - 1 downto 0 do
    stored := (!stored lsl 8) lor Char.code (Bytes.get b (base + i))
  done;
  Dpa_util.Crc.digest_sub b ~pos:0 ~len:base = !stored

let flip_bit_prefix b ~len k =
  let nbits = 8 * len in
  if nbits = 0 then invalid_arg "Wire.flip_bit: empty frame";
  let k = ((k mod nbits) + nbits) mod nbits in
  let byte = k / 8 and bit = k mod 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)))

let seal b = seal_prefix b ~len:(Bytes.length b)
let verify b = verify_prefix b ~len:(Bytes.length b)
