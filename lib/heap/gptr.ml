(* A global pointer packed into one immediate integer:

     [(node lsl slot_bits) lor slot]      for a live pointer
     [-1]                                 for nil

   Packing keeps pointers unboxed everywhere they travel — in the flat
   heap's pointer pools, in the runtime's ready ring, in hashtable keys —
   which is what makes the per-access paths allocation-free. 22 bits of
   node (4M nodes) and 40 bits of slot (1T objects per node) fit any
   configuration the simulator can hold.

   The integer order coincides with the old lexicographic (node, slot)
   order, nil first, so sorts over pointers are unchanged. *)

type t = int

let slot_bits = 40
let slot_mask = (1 lsl slot_bits) - 1

let nil = -1

let is_nil t = t < 0

let make ~node ~slot =
  if node < 0 || slot < 0 then invalid_arg "Gptr.make: negative component";
  if slot > slot_mask then invalid_arg "Gptr.make: slot out of range";
  (node lsl slot_bits) lor slot

(* Arithmetic shift: nil (-1) keeps its historical node/slot of -1. *)
let node t = t asr slot_bits
let slot t = if t < 0 then -1 else t land slot_mask

let equal (a : t) (b : t) = a = b

let pp ppf t =
  if is_nil t then Format.fprintf ppf "nil"
  else Format.fprintf ppf "%d:%d" (node t) (slot t)

let show t = Format.asprintf "%a" pp t

(* [Hashtbl] takes a bucket from the low bits of the hash, and a product
   alone leaves those depending on the slot only — the same slot on every
   node would share one bucket. Folding the node bits down onto the slot
   before the multiply, and the product's high half back down after it,
   spreads both. *)
let hash (t : t) =
  let h = (t lxor (t lsr slot_bits)) * 0x4F1BBCDCBFA53E0B in
  (h lxor (h lsr 32)) land max_int

let bytes = 8

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
