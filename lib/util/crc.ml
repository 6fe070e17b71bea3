(* Table-driven CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
   The minimum Hamming distance of this code is >= 2 at any length, so a
   single flipped bit anywhere in the covered range always changes the
   digest — the property the integrity layer's detection guarantee rests
   on (and that test/test_integrity.ml checks exhaustively). *)

let poly = 0xEDB88320

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* The table is forced once per digest, and the loop indexes it and the
   buffer unchecked: the index is masked to 0..255 and the range is
   checked on entry. *)
let digest_sub bytes ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length bytes then
    invalid_arg "Crc.digest_sub: range out of bounds";
  let t = Lazy.force table in
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let b = Char.code (Bytes.unsafe_get bytes i) in
    crc := Array.unsafe_get t ((!crc lxor b) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let digest bytes = digest_sub bytes ~pos:0 ~len:(Bytes.length bytes)
