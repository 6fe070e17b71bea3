open Dpa_heap

let test_gptr_nil () =
  Alcotest.(check bool) "nil is nil" true (Gptr.is_nil Gptr.nil);
  Alcotest.(check bool) "made is not nil" false
    (Gptr.is_nil (Gptr.make ~node:0 ~slot:0))

let test_gptr_equal_hash () =
  let a = Gptr.make ~node:1 ~slot:2 and b = Gptr.make ~node:1 ~slot:2 in
  Alcotest.(check bool) "equal" true (Gptr.equal a b);
  Alcotest.(check int) "hash equal" (Gptr.hash a) (Gptr.hash b)

(* [Hashtbl] buckets by the hash's low bits: the same slot on sixteen
   nodes must not pile into one bucket of a sixteen-bucket table. *)
let test_gptr_hash_spreads_nodes () =
  let used = Array.make 16 false in
  for node = 0 to 15 do
    used.(Gptr.hash (Gptr.make ~node ~slot:7) land 15) <- true
  done;
  let n = Array.fold_left (fun n u -> if u then n + 1 else n) 0 used in
  if n < 8 then Alcotest.failf "slot 7 on 16 nodes fills %d of 16 buckets" n

let test_obj_bytes () =
  let o = Obj_repr.make ~floats:[| 1.; 2.; 3. |] ~ptrs:[| Gptr.nil |] in
  Alcotest.(check int) "bytes" (8 + 24 + 8) (Obj_repr.bytes o)

let test_obj_copy_independent () =
  let o = Obj_repr.make ~floats:[| 1. |] ~ptrs:[||] in
  let c = Obj_repr.copy o in
  c.Obj_repr.floats.(0) <- 9.;
  Alcotest.(check (float 0.)) "original unchanged" 1. o.Obj_repr.floats.(0)

let test_heap_alloc_get () =
  let cluster = Heap.cluster ~nnodes:3 in
  let p = Heap.alloc cluster.(1) ~floats:[| 4.2 |] ~ptrs:[||] in
  Alcotest.(check int) "owner" 1 (Gptr.node p);
  let o = Heap.get cluster.(1) p in
  Alcotest.(check (float 0.)) "payload" 4.2 o.Obj_repr.floats.(0);
  let o' = Heap.deref cluster p in
  Alcotest.(check (float 0.)) "deref" 4.2 o'.Obj_repr.floats.(0)

let test_heap_wrong_node () =
  let cluster = Heap.cluster ~nnodes:2 in
  let p = Heap.alloc cluster.(0) ~floats:[||] ~ptrs:[||] in
  Alcotest.check_raises "wrong owner"
    (Invalid_argument "Heap.get: pointer owned by another node") (fun () ->
      ignore (Heap.get cluster.(1) p))

let test_heap_nil_deref () =
  let cluster = Heap.cluster ~nnodes:1 in
  Alcotest.check_raises "nil" (Invalid_argument "Heap.deref: nil pointer")
    (fun () -> ignore (Heap.deref cluster Gptr.nil))

let qcheck_heap_roundtrip =
  QCheck.Test.make ~name:"heap alloc/deref round trip" ~count:100
    QCheck.(small_list (small_list float))
    (fun payloads ->
      let cluster = Heap.cluster ~nnodes:4 in
      let ptrs =
        List.mapi
          (fun i fs ->
            let node = i mod 4 in
            (Heap.alloc cluster.(node) ~floats:(Array.of_list fs) ~ptrs:[||], fs))
          payloads
      in
      List.for_all
        (fun (p, fs) ->
          Array.to_list (Heap.deref cluster p).Obj_repr.floats = fs)
        ptrs)

(* ---- flat heap vs. boxed reference model ------------------------------ *)

(* The flat struct-of-arrays store must be observationally equal to the
   boxed heap it replaced. The reference model here IS the old
   representation — one [Obj_repr.t] record per object — and a random
   program of allocations and field mutations is interpreted against
   both; every object must then read back field-for-field identical
   through [deref], [get] and the in-place view accessors, and the
   cluster accounting ([total_objects]/[total_bytes]) must agree with
   the sum over the model's records. *)

type heap_op =
  | Op_alloc of int * float list * int  (* node, float fields, nptrs *)
  | Op_bump of int * int * float  (* object, field, delta *)
  | Op_set_float of int * int * float
  | Op_set_ptr of int * int * int  (* object, ptr slot, target object *)

let pp_heap_op = function
  | Op_alloc (n, fs, np) ->
    Printf.sprintf "alloc node:%d floats:%d ptrs:%d" n (List.length fs) np
  | Op_bump (i, f, v) -> Printf.sprintf "bump #%d.%d += %g" i f v
  | Op_set_float (i, f, v) -> Printf.sprintf "set #%d.%d <- %g" i f v
  | Op_set_ptr (i, p, t) -> Printf.sprintf "setp #%d.%d <- #%d" i p t

let gen_heap_op =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun node fs nptrs -> Op_alloc (node, fs, nptrs))
            (int_range 0 2)
            (list_size (int_range 0 5) (float_bound_exclusive 100.))
            (int_range 0 3) );
        ( 2,
          map3 (fun i f v -> Op_bump (i, f, v)) nat nat
            (float_bound_exclusive 10.) );
        ( 2,
          map3 (fun i f v -> Op_set_float (i, f, v)) nat nat
            (float_bound_exclusive 10.) );
        (2, map3 (fun i p t -> Op_set_ptr (i, p, t)) nat nat nat);
      ])

let arb_heap_program =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_heap_op ops))
    QCheck.Gen.(list_size (int_range 0 40) gen_heap_op)

let run_heap_program ops =
  let nnodes = 3 in
  let cluster = Heap.cluster ~nnodes in
  (* [objs] aligns the flat heap's handles with the boxed model's records:
     entry i is (handle on the flat heap, reference Obj_repr). *)
  let objs = ref [||] in
  let count () = Array.length !objs in
  let interpret = function
    | Op_alloc (node, fs, nptrs) ->
      let floats = Array.of_list fs in
      let ptrs =
        Array.init nptrs (fun j ->
            if count () = 0 then Gptr.nil
            else fst !objs.(((j * 31) + nptrs) mod count ()))
      in
      let p = Heap.alloc cluster.(node) ~floats ~ptrs in
      let model = Obj_repr.make ~floats:(Array.copy floats) ~ptrs:(Array.copy ptrs) in
      objs := Array.append !objs [| (p, model) |]
    | Op_bump (i, f, v) ->
      if count () > 0 then begin
        let p, model = !objs.(i mod count ()) in
        let nf = Array.length model.Obj_repr.floats in
        if nf > 0 then begin
          let f = f mod nf in
          Heap.bump_float cluster.(Gptr.node p) p ~idx:f v;
          model.Obj_repr.floats.(f) <- model.Obj_repr.floats.(f) +. v
        end
      end
    | Op_set_float (i, f, v) ->
      if count () > 0 then begin
        let p, model = !objs.(i mod count ()) in
        let nf = Array.length model.Obj_repr.floats in
        if nf > 0 then begin
          let f = f mod nf in
          Heap.set_float cluster.(Gptr.node p) p f v;
          model.Obj_repr.floats.(f) <- v
        end
      end
    | Op_set_ptr (i, s, t) ->
      if count () > 0 then begin
        let p, model = !objs.(i mod count ()) in
        let np = Array.length model.Obj_repr.ptrs in
        if np > 0 then begin
          let s = s mod np in
          let target = fst !objs.(t mod count ()) in
          Heap.set_ptr cluster.(Gptr.node p) p s target;
          model.Obj_repr.ptrs.(s) <- target
        end
      end
  in
  List.iter interpret ops;
  (cluster, !objs)

let obj_equal cluster p (model : Obj_repr.t) =
  let o = Heap.deref cluster p in
  let g = Heap.get cluster.(Gptr.node p) p in
  o.Obj_repr.floats = model.Obj_repr.floats
  && g.Obj_repr.floats = model.Obj_repr.floats
  && Array.length o.Obj_repr.ptrs = Array.length model.Obj_repr.ptrs
  && Array.for_all2 Gptr.equal o.Obj_repr.ptrs model.Obj_repr.ptrs
  && Heap.view_nfloats cluster p = Array.length model.Obj_repr.floats
  && Heap.view_nptrs cluster p = Array.length model.Obj_repr.ptrs
  && Array.for_all2
       (fun i f -> Heap.view_float cluster p i = f)
       (Array.init (Array.length model.Obj_repr.floats) Fun.id)
       model.Obj_repr.floats
  && Array.for_all2
       (fun i q -> Gptr.equal (Heap.view_ptr cluster p i) q)
       (Array.init (Array.length model.Obj_repr.ptrs) Fun.id)
       model.Obj_repr.ptrs
  && Heap.obj_bytes cluster.(Gptr.node p) p = Obj_repr.bytes model
  && Heap.view_bytes cluster p = Obj_repr.bytes model

let qcheck_heap_vs_boxed_model =
  QCheck.Test.make ~name:"flat heap = boxed reference model" ~count:300
    arb_heap_program (fun ops ->
      let cluster, objs = run_heap_program ops in
      Array.for_all (fun (p, model) -> obj_equal cluster p model) objs
      && Heap.total_objects cluster = Array.length objs
      && Heap.total_bytes cluster
         = Array.fold_left
             (fun acc (_, m) -> acc + Obj_repr.bytes m)
             0 objs)

(* ---- boundaries -------------------------------------------------------- *)

(* Enough objects of mixed shapes to force every pool (object table,
   float pool, pointer pool) through several doubling cycles; each
   object must survive the copies its pool makes while growing. *)
let test_pool_growth () =
  let cluster = Heap.cluster ~nnodes:1 in
  let t = cluster.(0) in
  let n = 10_000 in
  let ptrs =
    Array.init n (fun i ->
        Heap.alloc t
          ~floats:(Array.init (i mod 4) (fun j -> float_of_int ((i * 10) + j)))
          ~ptrs:(if i mod 3 = 0 then [| Gptr.nil |] else [||]))
  in
  Alcotest.(check int) "size" n (Heap.size t);
  Array.iteri
    (fun i p ->
      if Heap.nfloats t p <> i mod 4 then
        Alcotest.failf "object %d: nfloats %d" i (Heap.nfloats t p);
      for j = 0 to (i mod 4) - 1 do
        if Heap.get_float t p j <> float_of_int ((i * 10) + j) then
          Alcotest.failf "object %d: field %d corrupted by pool growth" i j
      done)
    ptrs

let test_zero_field_objects () =
  let cluster = Heap.cluster ~nnodes:1 in
  let t = cluster.(0) in
  let p = Heap.alloc t ~floats:[||] ~ptrs:[||] in
  let q = Heap.alloc t ~floats:[| 7. |] ~ptrs:[||] in
  Alcotest.(check int) "nfloats" 0 (Heap.nfloats t p);
  Alcotest.(check int) "nptrs" 0 (Heap.nptrs t p);
  let o = Heap.deref cluster p in
  Alcotest.(check int) "deref floats" 0 (Array.length o.Obj_repr.floats);
  Alcotest.(check int) "deref ptrs" 0 (Array.length o.Obj_repr.ptrs);
  (* A zero-field object must not alias its successor's fields. *)
  Alcotest.(check (float 0.)) "neighbour intact" 7. (Heap.get_float t q 0);
  Alcotest.(check int)
    "bytes = header only"
    (Obj_repr.bytes (Obj_repr.make ~floats:[||] ~ptrs:[||]))
    (Heap.obj_bytes t p)

(* [Heap.alloc] copies the caller's arrays into the pools (the .mli says
   so; the boxed heap used to adopt them instead). Mutating the arrays
   after the call must leave the heap untouched, and vice versa. *)
let test_alloc_copies_arrays () =
  let cluster = Heap.cluster ~nnodes:1 in
  let t = cluster.(0) in
  let floats = [| 1.; 2. |] in
  let inner = Heap.alloc t ~floats:[||] ~ptrs:[||] in
  let ptrs = [| inner |] in
  let p = Heap.alloc t ~floats ~ptrs in
  floats.(0) <- 99.;
  ptrs.(0) <- Gptr.nil;
  Alcotest.(check (float 0.))
    "heap float unaffected by caller mutation" 1. (Heap.get_float t p 0);
  Alcotest.(check bool)
    "heap ptr unaffected by caller mutation" true
    (Gptr.equal inner (Heap.get_ptr t p 0));
  Heap.set_float t p 1 42.;
  Alcotest.(check (float 0.)) "caller array unaffected by heap" 2. floats.(1)

let test_block_distribution_partition () =
  let nitems = 17 and nnodes = 5 in
  (* Ranges partition the items and owners are consistent. *)
  let seen = Array.make nitems 0 in
  for node = 0 to nnodes - 1 do
    let first, count = Distribution.block_range ~nitems ~nnodes node in
    for i = first to first + count - 1 do
      seen.(i) <- seen.(i) + 1;
      Alcotest.(check int) "owner matches range" node
        (Distribution.block_owner ~nitems ~nnodes i)
    done
  done;
  Array.iter (fun c -> Alcotest.(check int) "covered once" 1 c) seen

let qcheck_block_distribution =
  QCheck.Test.make ~name:"block distribution partitions items" ~count:200
    QCheck.(pair (int_range 0 200) (int_range 1 17))
    (fun (nitems, nnodes) ->
      let total = ref 0 in
      for node = 0 to nnodes - 1 do
        let _, count = Distribution.block_range ~nitems ~nnodes node in
        total := !total + count
      done;
      !total = nitems)

let test_weighted_ranges_balance () =
  let weights = Array.init 100 (fun i -> if i < 10 then 91 else 1) in
  (* Total = 910 + 90 = 1000; 4 nodes want ~250 each. *)
  let ranges = Dpa_heap.Distribution.weighted_ranges ~weights ~nnodes:4 in
  let covered = Array.make 100 0 in
  Array.iter
    (fun (first, count) ->
      for i = first to first + count - 1 do
        covered.(i) <- covered.(i) + 1
      done)
    ranges;
  Array.iter (fun c -> Alcotest.(check int) "partition" 1 c) covered;
  let node_weight (first, count) =
    let s = ref 0 in
    for i = first to first + count - 1 do
      s := !s + weights.(i)
    done;
    !s
  in
  let w0 = node_weight ranges.(0) in
  (* The heavy prefix must not all land on node 0. *)
  Alcotest.(check bool) "node 0 near fair share" true (w0 <= 400)

let node_weight weights (first, count) =
  let s = ref 0 in
  for i = first to first + count - 1 do
    s := !s + weights.(i)
  done;
  !s

(* One dominant weight must not starve the nodes after it: the old prefix
   rule gave [5;1;1;1;1;1] on 3 nodes the loads [5;1;4] (every prefix
   target already exceeded, so the middle node took one forced item and
   the tail absorbed the leftovers). The suffix-target rule re-splits the
   remainder evenly. *)
let test_weighted_ranges_dominant () =
  let weights = [| 5; 1; 1; 1; 1; 1 |] in
  let ranges = Dpa_heap.Distribution.weighted_ranges ~weights ~nnodes:3 in
  Alcotest.(check (list int))
    "loads"
    [ 5; 3; 2 ]
    (Array.to_list (Array.map (node_weight weights) ranges))

let test_weighted_ranges_all_zero () =
  let weights = Array.make 5 0 in
  let ranges = Dpa_heap.Distribution.weighted_ranges ~weights ~nnodes:2 in
  Alcotest.(check (list int))
    "counts" [ 3; 2 ]
    (Array.to_list (Array.map snd ranges))

let test_weighted_ranges_fewer_items () =
  let ranges =
    Dpa_heap.Distribution.weighted_ranges ~weights:[| 7; 7 |] ~nnodes:4
  in
  Alcotest.(check (list (pair int int)))
    "two singletons then empties"
    [ (0, 1); (1, 1); (2, 0); (2, 0) ]
    (Array.to_list ranges)

let qcheck_weighted_ranges_no_empty =
  QCheck.Test.make
    ~name:"weighted ranges: no empty range while items remain, imbalance bounded"
    ~count:500
    QCheck.(
      pair (int_range 1 9) (list_of_size (Gen.int_range 0 40) (int_range 0 20)))
    (fun (nnodes, ws) ->
      let weights = Array.of_list ws in
      let n = Array.length weights in
      let ranges = Dpa_heap.Distribution.weighted_ranges ~weights ~nnodes in
      let nonempty =
        Array.fold_left (fun acc (_, c) -> acc + if c > 0 then 1 else 0) 0 ranges
      in
      let total = Array.fold_left ( + ) 0 weights in
      let max_w = Array.fold_left max 0 weights in
      let max_load =
        Array.fold_left (fun acc r -> max acc (node_weight weights r)) 0 ranges
      in
      nonempty = min n nnodes
      && max_load <= (total / nnodes) + max_w + 1)

let qcheck_weighted_ranges_partition =
  QCheck.Test.make ~name:"weighted ranges always partition the items"
    ~count:300
    QCheck.(pair (int_range 1 9) (list_of_size (Gen.int_range 0 40) (int_range 0 20)))
    (fun (nnodes, ws) ->
      let weights = Array.of_list ws in
      let ranges = Dpa_heap.Distribution.weighted_ranges ~weights ~nnodes in
      let owner = Dpa_heap.Distribution.owner_of_ranges ranges in
      Array.length owner = Array.length weights
      && Array.length ranges = nnodes
      && fst (Array.fold_left
                (fun (ok, expected) (first, count) ->
                  (ok && first = expected && count >= 0, expected + count))
                (true, 0) ranges)
      && Array.fold_left (fun acc (_, c) -> acc + c) 0 ranges
         = Array.length weights)

let suites =
  [
    ( "heap.gptr",
      [
        Alcotest.test_case "nil" `Quick test_gptr_nil;
        Alcotest.test_case "equal/hash" `Quick test_gptr_equal_hash;
        Alcotest.test_case "hash spreads nodes" `Quick
          test_gptr_hash_spreads_nodes;
      ] );
    ( "heap.obj",
      [
        Alcotest.test_case "bytes" `Quick test_obj_bytes;
        Alcotest.test_case "copy independent" `Quick test_obj_copy_independent;
      ] );
    ( "heap.heap",
      [
        Alcotest.test_case "alloc/get" `Quick test_heap_alloc_get;
        Alcotest.test_case "wrong node" `Quick test_heap_wrong_node;
        Alcotest.test_case "nil deref" `Quick test_heap_nil_deref;
        QCheck_alcotest.to_alcotest qcheck_heap_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_heap_vs_boxed_model;
        Alcotest.test_case "pool growth" `Quick test_pool_growth;
        Alcotest.test_case "zero-field objects" `Quick test_zero_field_objects;
        Alcotest.test_case "alloc copies arrays" `Quick
          test_alloc_copies_arrays;
      ] );
    ( "heap.distribution",
      [
        Alcotest.test_case "partition" `Quick test_block_distribution_partition;
        Alcotest.test_case "weighted balance" `Quick test_weighted_ranges_balance;
        Alcotest.test_case "weighted dominant" `Quick
          test_weighted_ranges_dominant;
        Alcotest.test_case "weighted all-zero" `Quick
          test_weighted_ranges_all_zero;
        Alcotest.test_case "weighted fewer items" `Quick
          test_weighted_ranges_fewer_items;
        QCheck_alcotest.to_alcotest qcheck_block_distribution;
        QCheck_alcotest.to_alcotest qcheck_weighted_ranges_partition;
        QCheck_alcotest.to_alcotest qcheck_weighted_ranges_no_empty;
      ] );
  ]
