(* The splitmix64 state lives unboxed in an 8-byte buffer, read and written
   with the unchecked 64-bit primitives, so a draw computes in registers:
   a [mutable int64] field would box a fresh state on every draw. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden in
  set64 t 0 s;
  mix s

let int64 t = next t

let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the conversion to a 63-bit int stays non-negative. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

(* 53 random bits into [0,1). *)
let[@inline] unit_float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (next t) 11)) *. 0x1p-53

let uniform t = unit_float t

let chance t p = unit_float t < p

let gaussian t =
  let rec draw () =
    let u = uniform t in
    if u > 0. then u else draw ()
  in
  let u1 = draw () in
  let u2 = uniform t in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)
