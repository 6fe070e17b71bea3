(* Linear probing with backward-shift deletion, [-1] marking both an
   empty bucket and an absent key, so a lookup neither allocates nor
   raises. Fibonacci hashing takes the top bits of a 63-bit product, which
   spreads both consecutive tokens and packed pointers (whose node bits
   sit above the slot bits) over the whole table. *)
type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable shift : int;  (* 63 - log2 (capacity) *)
  mutable size : int;
}

let create ~log2 =
  {
    keys = Array.make (1 lsl log2) (-1);
    vals = Array.make (1 lsl log2) 0;
    shift = 63 - log2;
    size = 0;
  }

let[@inline] home t k = (k * 0x4F1BBCDCBFA53E0B) lsr t.shift

(* The bucket holding [k], or the empty bucket ending its probe run. *)
let rec probe keys mask k i =
  let x = keys.(i) in
  if x = k || x < 0 then i else probe keys mask k ((i + 1) land mask)

let[@inline] bucket t k = probe t.keys (Array.length t.keys - 1) k (home t k)

(* The home bucket is probed inline: most lookups settle there (a hit or
   an empty bucket), so only a collision pays the call into [probe]. *)
let[@inline] find t k =
  let keys = t.keys in
  let i = home t k in
  let x = keys.(i) in
  if x = k then t.vals.(i)
  else if x < 0 then -1
  else begin
    let mask = Array.length keys - 1 in
    let i = probe keys mask k ((i + 1) land mask) in
    if keys.(i) = k then t.vals.(i) else -1
  end

let[@inline] mem t k =
  let keys = t.keys in
  let i = home t k in
  let x = keys.(i) in
  x = k
  || x >= 0
     &&
     let mask = Array.length keys - 1 in
     keys.(probe keys mask k ((i + 1) land mask)) = k

(* A present key is overwritten in place: [size] counts keys, not adds. *)
let rec add t k v =
  let i = bucket t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else if 2 * (t.size + 1) > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (2 * Array.length keys) (-1);
    t.vals <- Array.make (2 * Array.length keys) 0;
    t.shift <- t.shift - 1;
    t.size <- 0;
    Array.iteri (fun i k' -> if k' >= 0 then add t k' vals.(i)) keys;
    add t k v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

(* Backward-shift deletion: walk the probe run after the vacated bucket
   and pull back every entry whose home is not cyclically in
   (hole, j] — it would be unreachable past the new empty bucket. *)
let remove t k =
  let mask = Array.length t.keys - 1 in
  let i = probe t.keys mask k (home t k) in
  if t.keys.(i) = k then begin
    t.size <- t.size - 1;
    let hole = ref i and j = ref ((i + 1) land mask) in
    while t.keys.(!j) >= 0 do
      let h = home t t.keys.(!j) in
      let stays =
        if !hole < !j then h > !hole && h <= !j else h > !hole || h <= !j
      in
      if not stays then begin
        t.keys.(!hole) <- t.keys.(!j);
        t.vals.(!hole) <- t.vals.(!j);
        hole := !j
      end;
      j := (!j + 1) land mask
    done;
    t.keys.(!hole) <- -1
  end

let fold t f acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc) t.keys;
  !acc

let size t = t.size

let clear t =
  if t.size > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) (-1);
    t.size <- 0
  end
