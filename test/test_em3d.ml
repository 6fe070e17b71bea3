open Dpa_compiler
open Dpa_sim

let build ?(nnodes = 4) ?(e_per_node = 16) ?(degree = 5) () =
  Em3d.build ~nnodes ~e_per_node ~h_per_node:16 ~degree ~remote_frac:0.4
    ~seed:11

let test_build_shapes () =
  let g = build () in
  Alcotest.(check int) "e nodes" 64 (Array.length g.Em3d.e_nodes);
  Alcotest.(check int) "h nodes" 64 (Array.length g.Em3d.h_nodes);
  (* Every E-node has [degree] non-nil dependencies and degree+1 floats. *)
  Array.iter
    (fun p ->
      let v = Dpa_heap.Heap.deref g.Em3d.heaps p in
      Alcotest.(check int) "ptrs" 5 (Array.length v.Dpa_heap.Obj_repr.ptrs);
      Alcotest.(check int) "floats" 6 (Array.length v.Dpa_heap.Obj_repr.floats);
      Array.iter
        (fun d ->
          Alcotest.(check bool) "non-nil" false (Dpa_heap.Gptr.is_nil d))
        v.Dpa_heap.Obj_repr.ptrs)
    g.Em3d.e_nodes

let test_build_deterministic () =
  let a = build () and b = build () in
  Alcotest.(check (float 1e-12)) "same checksum" (Em3d.reference_update a)
    (Em3d.reference_update b)

let test_remote_frac_zero_is_local () =
  let g =
    Em3d.build ~nnodes:4 ~e_per_node:8 ~h_per_node:8 ~degree:3 ~remote_frac:0.
      ~seed:5
  in
  Array.iteri
    (fun i p ->
      let owner = i / 8 in
      let v = Dpa_heap.Heap.deref g.Em3d.heaps p in
      Array.iter
        (fun (d : Dpa_heap.Gptr.t) ->
          Alcotest.(check int) "dependency is local" owner (Dpa_heap.Gptr.node d))
        v.Dpa_heap.Obj_repr.ptrs)
    g.Em3d.e_nodes

let run_em3d variant ~engine g ~accum =
  Dpa_baselines.Variant.run_phase variant ~label:"em3d" ~engine
    ~heaps:g.Em3d.heaps
    { Dpa_baselines.Variant.items = (fun a -> Em3d.items a g ~accum) }

let run_hand variant =
  let g = build () in
  let want = Em3d.reference_update g in
  let sum = ref 0. in
  let accum v = sum := !sum +. v in
  let engine = Engine.create (Machine.t3d ~nodes:4) in
  ignore (run_em3d variant ~engine g ~accum);
  (want, !sum)

let check_close name (want, got) =
  if Float.abs (want -. got) > 1e-9 *. Float.max 1. (Float.abs want) then
    Alcotest.failf "%s: checksum %.12f vs reference %.12f" name got want

let test_hand_items_match_reference () =
  check_close "dpa" (run_hand (Dpa_baselines.Variant.dpa ~strip_size:8 ()));
  check_close "caching"
    (run_hand (Dpa_baselines.Variant.Caching { capacity = 64 }));
  check_close "blocking" (run_hand Dpa_baselines.Variant.Blocking)

let test_ir_program_partition () =
  let p = Em3d.update_program ~degree:3 in
  Alias.check p;
  let info = Partition.analyze p (Ast.func p "update_node") in
  (* One alignment point on n; each neighbor pointer (same alias class,
     loaded after n's fetch) needs its own — but consecutive neighbors are
     distinct variables rebound each round, so each Load_field on dep
     spawns. 1 (n) + 3 (deps). *)
  Alcotest.(check int) "spawn sites" 4
    (List.length info.Partition.spawn_sites)

module I = Interp.Make (Dpa.Runtime)

let test_ir_program_matches_reference () =
  let g = build ~degree:4 () in
  let want = Em3d.reference_update g in
  let prog = Em3d.update_program ~degree:4 in
  let c = I.compile prog in
  let engine = Engine.create (Machine.t3d ~nodes:4) in
  let per_node = Array.length g.Em3d.e_nodes / 4 in
  let items node =
    Array.init per_node (fun i ->
        I.item c ~entry:"update_node"
          ~args:[ Value.Ptr g.Em3d.e_nodes.((node * per_node) + i) ])
  in
  ignore
    (Dpa.Runtime.run_phase ~engine ~heaps:g.Em3d.heaps
       ~config:(Dpa.Config.dpa ()) ~items);
  let got = I.accumulator c "sum" in
  if Float.abs (want -. got) > 1e-9 then
    Alcotest.failf "IR checksum %.12f vs reference %.12f" got want

let test_dpa_beats_blocking_em3d () =
  let time variant =
    let g = build ~e_per_node:32 () in
    let engine = Engine.create (Machine.t3d ~nodes:4) in
    let accum _ = () in
    let b = fst (run_em3d variant ~engine g ~accum) in
    b.Breakdown.elapsed_ns
  in
  Alcotest.(check bool) "dpa faster" true
    (time (Dpa_baselines.Variant.dpa ~strip_size:16 ())
    < time Dpa_baselines.Variant.Blocking)

let suites =
  [
    ( "em3d",
      [
        Alcotest.test_case "build shapes" `Quick test_build_shapes;
        Alcotest.test_case "deterministic" `Quick test_build_deterministic;
        Alcotest.test_case "remote_frac 0 is local" `Quick
          test_remote_frac_zero_is_local;
        Alcotest.test_case "hand items match reference" `Quick
          test_hand_items_match_reference;
        Alcotest.test_case "IR partition" `Quick test_ir_program_partition;
        Alcotest.test_case "IR matches reference" `Quick
          test_ir_program_matches_reference;
        Alcotest.test_case "dpa beats blocking" `Quick
          test_dpa_beats_blocking_em3d;
      ] );
  ]
