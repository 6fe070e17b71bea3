open Dpa_util

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_distinct_seeds () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different" true (Rng.int64 a <> Rng.int64 b)

let test_rng_uniform_range () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let u = Rng.uniform r in
    if u < 0. || u >= 1. then Alcotest.fail "uniform out of range"
  done

let test_rng_int_range () =
  let r = Rng.create ~seed:9 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.fail "int out of range"
  done

let test_rng_gaussian_moments () =
  let r = Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let g = Rng.gaussian r in
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.05);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.) < 0.05)

let test_rng_split_independent () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  let x = Rng.int64 a and y = Rng.int64 b in
  Alcotest.(check bool) "streams differ" true (x <> y)

(* The first eight draws of each kind, per seed, as the splitmix64 stream
   produced them when every fault schedule and input set in the repository
   was recorded: a change to the generator's representation must keep each
   draw bit for bit. [uniform] draws are pinned as their exact 53-bit
   numerators and [split] streams by their first [int64]. *)
let rng_pins =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
        -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
        3207296026000306913L; -4214222208109204676L ],
      [ 1248; 607872; 218951; 899533; 285792; 425248; 273623; 710615 ],
      [ 7956156453446585; 3886858653415212; 238094247788840; 8744927430068624;
        957885841028366; 2948288379523028; 1566062512695462; 6949473567187669 ],
      [ -6411193824288604561L; 5095610196844313600L; -1285969313023052516L;
        5629846650018757432L; 5085904676777434204L; 1428740210282922284L;
        7679224513536973917L; -1560629665965767182L ] );
    ( 1,
      [ -7995527694508729151L; -4689498862643123097L; -534904783426661026L;
        8196980753821780235L; 8195237237126968761L; -4373826470845021568L;
        -2262517385565684571L; -8797857673641491083L ],
      [ 436383; 652540; 556454; 322844; 253574; 594335; 365055; 925014 ],
      [ 5103132997656651; 6717404888216029; 8746015278458442; 4002432008702041;
        4001580682190902; 6871541798273696; 7902454437570247; 4711370312533232 ],
      [ 6791897765849424158L; 8614008028692990056L; -6429142944794472162L;
        4530617772509985760L; 4611819469741994664L; -112400595109952569L;
        -783338352185615627L; -1473767010236104073L ] );
    ( 0x5EED,
      [ 716632666546416052L; 6139096880363046005L; 6727192872932819891L;
        8129731167615341197L; 860951788085400693L; 6825197725885693130L;
        2984990394097172368L; 1335781936353846705L ],
      [ 716524; 914158; 686413; 751430; 446246; 485518; 213728; 14911 ],
      [ 349918294212117; 2997605898614768; 3284762144986728; 3969595296687178;
        420386615276074; 3332616077092623; 1457514840867759; 652237273610276 ],
      [ 1333845924684484328L; 6484775833747306669L; 3820746354243984352L;
        -6647954609995410847L; -6276935486747645580L; 5585534936366239883L;
        4032940211980395573L; -275842354632810772L ] );
  ]

let test_rng_pinned_streams () =
  List.iter
    (fun (seed, int64s, ints, uniforms, splits) ->
      let draws f = let r = Rng.create ~seed in List.init 8 (fun _ -> f r) in
      let name kind = Printf.sprintf "seed %d %s" seed kind in
      Alcotest.(check (list int64)) (name "int64") int64s (draws Rng.int64);
      Alcotest.(check (list int)) (name "int") ints
        (draws (fun r -> Rng.int r 1_000_003));
      Alcotest.(check (list int)) (name "uniform") uniforms
        (draws (fun r -> int_of_float (Rng.uniform r *. 0x1p53)));
      Alcotest.(check (list int64)) (name "split") splits
        (draws (fun r -> Rng.int64 (Rng.split r))))
    rng_pins

let test_dynarray_basic () =
  let d = Dynarray.create () in
  Alcotest.(check int) "empty" 0 (Dynarray.length d);
  for i = 0 to 99 do
    let idx = Dynarray.add d (i * i) in
    Alcotest.(check int) "index" i idx
  done;
  Alcotest.(check int) "length" 100 (Dynarray.length d);
  Alcotest.(check int) "get" 49 (Dynarray.get d 7)

let test_dynarray_bounds () =
  let d = Dynarray.create () in
  ignore (Dynarray.add d 1);
  Alcotest.check_raises "oob" (Invalid_argument "Dynarray: index out of bounds")
    (fun () -> ignore (Dynarray.get d 1))

let test_dynarray_iter_order () =
  let d = Dynarray.create () in
  for i = 0 to 9 do
    ignore (Dynarray.add d i)
  done;
  let acc = ref [] in
  Dynarray.iter (fun x -> acc := x :: !acc) d;
  Alcotest.(check (list int)) "order" [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ] !acc

module Itbl = Hashtbl.Make (Int)
module L = Lru.Make (Itbl)

let test_lru_hit_miss () =
  let c = L.create ~capacity:2 in
  L.add c 1 "a";
  L.add c 2 "b";
  Alcotest.(check (option string)) "hit 1" (Some "a") (L.find c 1);
  L.add c 3 "c" (* evicts 2: 1 was just touched *);
  Alcotest.(check (option string)) "2 evicted" None (L.find c 2);
  Alcotest.(check (option string)) "1 kept" (Some "a") (L.find c 1);
  Alcotest.(check (option string)) "3 kept" (Some "c") (L.find c 3);
  Alcotest.(check int) "one eviction" 1 (L.evictions c)

let test_lru_zero_capacity () =
  let c = L.create ~capacity:0 in
  L.add c 1 "a";
  Alcotest.(check (option string)) "never stores" None (L.find c 1);
  Alcotest.(check int) "size 0" 0 (L.size c);
  (* Admit-then-evict: every insertion counts one eviction, so the
     eviction accounting agrees with positive capacities
     (evictions = insertions - retained, retained = 0 here). *)
  Alcotest.(check int) "eviction counted" 1 (L.evictions c);
  L.add c 1 "b";
  L.add c 2 "c";
  Alcotest.(check int) "every add evicts" 3 (L.evictions c);
  Alcotest.(check bool) "mem misses" false (L.mem c 1);
  L.clear c;
  Alcotest.(check int) "size 0 after clear" 0 (L.size c);
  Alcotest.(check int) "evictions survive clear" 3 (L.evictions c)

let test_lru_zero_capacity_consistent_qcheck =
  QCheck.Test.make
    ~name:"lru capacity 0: structure stays empty, every add counts an eviction"
    ~count:200
    QCheck.(small_list (pair (int_range 0 10) (int_range 0 3)))
    (fun ops ->
      let c = L.create ~capacity:0 in
      let adds = ref 0 in
      List.iter
        (fun (k, op) ->
          match op with
          | 0 ->
            L.add c k k;
            incr adds
          | 1 -> assert (L.find c k = None)
          | 2 -> assert (not (L.mem c k))
          | _ -> L.clear c)
        ops;
      L.size c = 0 && L.evictions c = !adds)

let test_lru_replace () =
  let c = L.create ~capacity:2 in
  L.add c 1 "a";
  L.add c 1 "b";
  Alcotest.(check (option string)) "replaced" (Some "b") (L.find c 1);
  Alcotest.(check int) "size 1" 1 (L.size c)

let test_lru_eviction_order_qcheck =
  QCheck.Test.make ~name:"lru keeps the most recent [capacity] distinct keys"
    ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 20)))
    (fun (cap, keys) ->
      let c = L.create ~capacity:cap in
      List.iter (fun k -> L.add c k k) keys;
      (* Reference: last [cap] distinct keys by most-recent insertion. *)
      let expected =
        List.fold_left
          (fun acc k -> k :: List.filter (fun x -> x <> k) acc)
          [] keys
        |> fun l -> List.filteri (fun i _ -> i < cap) l
      in
      List.for_all (fun k -> L.mem c k) expected
      && L.size c = List.length expected)

(* The standard CRC-32 check value, and a sub-range digest equal to the
   digest of the same bytes on their own. *)
let test_crc_check_value () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "check value" 0xCBF43926
    (Dpa_util.Crc.digest_sub (Bytes.of_string "123456789") ~pos:0 ~len:9);
  Alcotest.(check int) "sub-range" 0xCBF43926
    (Dpa_util.Crc.digest_sub b ~pos:2 ~len:9);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Crc.digest_sub: range out of bounds") (fun () ->
      ignore (Dpa_util.Crc.digest_sub b ~pos:5 ~len:9))

(* The slicing-by-8 loop against the bytewise one, over random buffers and
   every alignment and length a sub-range can take, tails included. *)
let qcheck_crc_sliced_matches_bytewise =
  QCheck.Test.make ~name:"sliced CRC equals the bytewise loop" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (pair small_nat small_nat))
    (fun (str, (p, l)) ->
      let b = Bytes.of_string str in
      let n = Bytes.length b in
      let pos = if n = 0 then 0 else p mod (n + 1) in
      let len = if n - pos = 0 then 0 else l mod (n - pos + 1) in
      Dpa_util.Crc.digest_sub b ~pos ~len
      = Dpa_util.Crc.digest_sub_bytewise b ~pos ~len)

(* [int] and [chance] draws compute in registers; only the float-valued
   draws box their result. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create ~seed:3 in
  let hits = Array.make 1 0 in
  let draw () =
    if Rng.chance r 0.5 then hits.(0) <- hits.(0) + 1;
    hits.(0) <- hits.(0) + Rng.int r 10
  in
  draw ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    draw ()
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "drew" true (hits.(0) > 0);
  if words > 16. then
    Alcotest.failf "%.0f minor words over 10000 draw pairs (bound 16)" words

let suites =
  [
    ( "util.crc",
      [
        Alcotest.test_case "check value" `Quick test_crc_check_value;
        QCheck_alcotest.to_alcotest qcheck_crc_sliced_matches_bytewise;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "distinct seeds" `Quick test_rng_distinct_seeds;
        Alcotest.test_case "uniform in range" `Quick test_rng_uniform_range;
        Alcotest.test_case "int in range" `Quick test_rng_int_range;
        Alcotest.test_case "gaussian moments" `Quick test_rng_gaussian_moments;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "pinned streams" `Quick test_rng_pinned_streams;
        Alcotest.test_case "draws allocate nothing" `Quick
          test_rng_draws_allocate_nothing;
      ] );
    ( "util.dynarray",
      [
        Alcotest.test_case "basic" `Quick test_dynarray_basic;
        Alcotest.test_case "bounds" `Quick test_dynarray_bounds;
        Alcotest.test_case "iter order" `Quick test_dynarray_iter_order;
      ] );
    ( "util.lru",
      [
        Alcotest.test_case "hit/miss/evict" `Quick test_lru_hit_miss;
        Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
        Alcotest.test_case "replace" `Quick test_lru_replace;
        QCheck_alcotest.to_alcotest test_lru_eviction_order_qcheck;
        QCheck_alcotest.to_alcotest test_lru_zero_capacity_consistent_qcheck;
      ] );
  ]
