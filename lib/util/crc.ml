(* Table-driven CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
   The minimum Hamming distance of this code is >= 2 at any length, so a
   single flipped bit anywhere in the covered range always changes the
   digest — the property the integrity layer's detection guarantee rests
   on (and that test/test_integrity.ml checks exhaustively). *)

let poly = 0xEDB88320

(* Slicing-by-8: eight 256-entry tables laid end to end. Table 0 is the
   bytewise table; entry [n] of table [k] is the CRC register after
   feeding byte [n] followed by [k] zero bytes, so one step folds eight
   input bytes with eight lookups instead of eight dependent ones. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

(* The plain loop: one byte, one lookup in table 0. *)
let bytewise t crc bytes ~pos ~stop =
  let crc = ref crc in
  for j = pos to stop - 1 do
    let b = Char.code (Bytes.unsafe_get bytes j) in
    crc := Array.unsafe_get t ((!crc lxor b) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc

let check_range bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Crc.digest_sub: range out of bounds"

(* The tables are forced once per digest, and the loops index them and
   the buffer unchecked: every index is masked to a byte (the register
   stays within 32 bits) and the range is checked on entry. The first
   four bytes of each step are xored into the register little-endian,
   the CRC's bit order. *)
let digest_sub bytes ~pos ~len =
  check_range bytes ~pos ~len;
  let t = Lazy.force tables in
  let crc = ref 0xFFFFFFFF in
  let stop8 = pos + (len land lnot 7) in
  let i = ref pos in
  while !i < stop8 do
    let p = !i in
    let c =
      !crc
      lxor (Char.code (Bytes.unsafe_get bytes p)
           lor (Char.code (Bytes.unsafe_get bytes (p + 1)) lsl 8)
           lor (Char.code (Bytes.unsafe_get bytes (p + 2)) lsl 16)
           lor (Char.code (Bytes.unsafe_get bytes (p + 3)) lsl 24))
    in
    crc :=
      Array.unsafe_get t ((7 * 256) + (c land 0xFF))
      lxor Array.unsafe_get t ((6 * 256) + ((c lsr 8) land 0xFF))
      lxor Array.unsafe_get t ((5 * 256) + ((c lsr 16) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + (c lsr 24))
      lxor Array.unsafe_get t
             ((3 * 256) + Char.code (Bytes.unsafe_get bytes (p + 4)))
      lxor Array.unsafe_get t
             ((2 * 256) + Char.code (Bytes.unsafe_get bytes (p + 5)))
      lxor Array.unsafe_get t (256 + Char.code (Bytes.unsafe_get bytes (p + 6)))
      lxor Array.unsafe_get t (Char.code (Bytes.unsafe_get bytes (p + 7)));
    i := p + 8
  done;
  bytewise t !crc bytes ~pos:stop8 ~stop:(pos + len) lxor 0xFFFFFFFF

let digest_sub_bytewise bytes ~pos ~len =
  check_range bytes ~pos ~len;
  bytewise (Lazy.force tables) 0xFFFFFFFF bytes ~pos ~stop:(pos + len)
  lxor 0xFFFFFFFF
