open Complex

type t = Complex.t array

let order a = Array.length a - 1
let zero ~p = Array.make (p + 1) Complex.zero

let add_inplace dst src =
  if Array.length dst <> Array.length src then
    invalid_arg "Expansion.add_inplace: order mismatch";
  Array.iteri (fun i v -> dst.(i) <- add dst.(i) v) src

(* Exact binomial table. 128 rows cover order-29 expansions (l+k-1 <= 58)
   with lots of headroom; doubles are exact well past that. *)
let max_binomial = 128

let binomial_table =
  lazy
    (let t = Array.make_matrix (max_binomial + 1) (max_binomial + 1) 0. in
     for n = 0 to max_binomial do
       t.(n).(0) <- 1.;
       for k = 1 to n do
         t.(n).(k) <- t.(n - 1).(k - 1) +. (if k <= n - 1 then t.(n - 1).(k) else 0.)
       done
     done;
     t)

let binomial n k =
  if n < 0 || k < 0 || k > n then 0.
  else if n > max_binomial then invalid_arg "Expansion.binomial: n too large"
  else (Lazy.force binomial_table).(n).(k)

let cscale s z = { re = s *. z.re; im = s *. z.im }

let p2m ~p ~center charges =
  let a = zero ~p in
  List.iter
    (fun (q, z) ->
      let u = sub z center in
      a.(0) <- add a.(0) { re = q; im = 0. };
      let uk = ref one in
      for k = 1 to p do
        uk := mul !uk u;
        (* a_k -= q * u^k / k *)
        a.(k) <- sub a.(k) (cscale (q /. float_of_int k) !uk)
      done)
    charges;
  a

let m2m a ~from_center ~to_center =
  let p = order a in
  let t = sub from_center to_center in
  let b = zero ~p in
  b.(0) <- a.(0);
  (* Precompute powers of t. *)
  let tp = Array.make (p + 1) one in
  for i = 1 to p do
    tp.(i) <- mul tp.(i - 1) t
  done;
  for l = 1 to p do
    let acc = ref (cscale (-1. /. float_of_int l) (mul a.(0) tp.(l))) in
    for k = 1 to l do
      acc := add !acc (cscale (binomial (l - 1) (k - 1)) (mul a.(k) tp.(l - k)))
    done;
    b.(l) <- !acc
  done;
  b

let m2l a ~from_center ~to_center =
  let p = order a in
  let t = sub from_center to_center in
  if norm t < 1e-300 then invalid_arg "Expansion.m2l: coincident centers";
  let b = zero ~p in
  let inv_t = inv t in
  (* s_k = a_k / t^k * (-1)^k for k >= 1 *)
  let s = Array.make (p + 1) Complex.zero in
  let itk = ref one in
  for k = 1 to p do
    itk := mul !itk inv_t;
    let v = mul a.(k) !itk in
    s.(k) <- (if k land 1 = 1 then neg v else v)
  done;
  let sum0 = ref Complex.zero in
  for k = 1 to p do
    sum0 := add !sum0 s.(k)
  done;
  b.(0) <- add (mul a.(0) (log (neg t))) !sum0;
  let itl = ref one in
  for l = 1 to p do
    itl := mul !itl inv_t;
    let head = cscale (-1. /. float_of_int l) (mul a.(0) !itl) in
    let inner = ref Complex.zero in
    for k = 1 to p do
      inner := add !inner (cscale (binomial (l + k - 1) (k - 1)) s.(k))
    done;
    b.(l) <- add head (mul !itl !inner)
  done;
  b

let eval_multipole a ~center z =
  let p = order a in
  let w = sub z center in
  let phi = ref (mul a.(0) (log w)) in
  let dphi = ref (div a.(0) w) in
  let iw = inv w in
  let iwk = ref one in
  for k = 1 to p do
    iwk := mul !iwk iw;
    phi := add !phi (mul a.(k) !iwk);
    dphi := sub !dphi (cscale (float_of_int k) (mul a.(k) (mul !iwk iw)))
  done;
  (!phi, !dphi)

let eval_local b ~center z =
  let p = order b in
  let w = sub z center in
  (* Horner, value and derivative together. *)
  let phi = ref b.(p) and dphi = ref Complex.zero in
  for l = p - 1 downto 0 do
    dphi := add (mul !dphi w) !phi;
    phi := add (mul !phi w) b.(l)
  done;
  (!phi, !dphi)

let direct charges z =
  let phi = ref Complex.zero and dphi = ref Complex.zero in
  List.iter
    (fun (q, zi) ->
      let w = sub z zi in
      if norm w > 1e-12 then begin
        phi := add !phi (cscale q (log w));
        dphi := add !dphi (cscale q (inv w))
      end)
    charges;
  (!phi, !dphi)
