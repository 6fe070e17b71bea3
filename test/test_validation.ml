(* Constructor and argument validation across the libraries: bad inputs
   must fail loudly, not corrupt a simulation. *)

open Dpa_sim

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_machine_validation () =
  expect_invalid "zero nodes" (fun () -> Machine.make ~nodes:0 ())

let test_engine_validation () =
  let engine = Engine.create (Machine.t3d ~nodes:2) in
  (* The messages name the offending value. *)
  Alcotest.check_raises "bad node"
    (Invalid_argument "Engine.post: bad node id 5 (machine has 2 nodes)")
    (fun () -> Engine.post engine ~time:0 ~node:5 (fun () -> ()));
  Alcotest.check_raises "negative time"
    (Invalid_argument "Event_queue.add: negative time -1") (fun () ->
      Engine.post engine ~time:(-1) ~node:0 (fun () -> ()));
  Alcotest.(check int) "rejected posts are not live" 0
    (Engine.live_events engine);
  Engine.post engine ~time:0 ~node:0 (fun () -> ());
  expect_invalid "barrier with pending events" (fun () -> Engine.barrier engine)

let test_config_validation () =
  expect_invalid "zero strip" (fun () -> Dpa.Config.dpa ~strip_size:0 ());
  expect_invalid "zero agg" (fun () -> Dpa.Config.dpa ~agg_max:0 ())

let test_heap_validation () =
  expect_invalid "zero cluster" (fun () -> Dpa_heap.Heap.cluster ~nnodes:0);
  expect_invalid "bad gptr" (fun () -> Dpa_heap.Gptr.make ~node:(-1) ~slot:0)

let test_aggregator_validation () =
  expect_invalid "zero dest" (fun () ->
      Dpa_msg.Aggregator.create ~ndest:0 ~max_batch:1 ~flush:(fun ~dst:_ _ -> ()));
  expect_invalid "zero batch" (fun () ->
      Dpa_msg.Aggregator.create ~ndest:1 ~max_batch:0 ~flush:(fun ~dst:_ _ -> ()))

let test_update_buffer_validation () =
  expect_invalid "zero dest" (fun () ->
      Dpa.Update_buffer.create ~ndest:0 ~combine:true ~max_batch:1
        ~flush:(fun ~dst:_ _ -> ())
        ())

let test_dcache_validation () =
  expect_invalid "zero lines" (fun () -> Dcache.create ~lines:0 ());
  expect_invalid "zero assoc" (fun () -> Dcache.create ~assoc:0 ~lines:4 ());
  let c = Dcache.create ~lines:4 () in
  expect_invalid "negative key" (fun () -> Dcache.access c (-1))

let test_app_validation () =
  expect_invalid "no bodies" (fun () -> Dpa_bh.Octree.build [||]);
  expect_invalid "bad leaf cap" (fun () ->
      Dpa_bh.Octree.build ~leaf_cap:0 (Dpa_bh.Plummer.generate ~n:4 ~seed:1));
  expect_invalid "no particles" (fun () -> Dpa_fmm.Quadtree.build [||]);
  expect_invalid "shallow depth" (fun () ->
      Dpa_fmm.Quadtree.build ~depth:1 (Dpa_fmm.Particle2d.uniform ~n:4 ~seed:1));
  expect_invalid "zero steps" (fun () ->
      Dpa_bh.Bh_run.simulate ~nnodes:1 ~nbodies:4 ~nsteps:0
        Dpa_baselines.Variant.Blocking);
  expect_invalid "bad remote frac" (fun () ->
      Dpa_compiler.Em3d.build ~nnodes:1 ~e_per_node:1 ~h_per_node:1 ~degree:1
        ~remote_frac:1.5 ~seed:1)

let test_expansion_validation () =
  expect_invalid "coincident m2l" (fun () ->
      Dpa_fmm.Expansion.m2l
        (Dpa_fmm.Expansion.zero ~p:3)
        ~from_center:Complex.zero ~to_center:Complex.zero);
  expect_invalid "mismatched add" (fun () ->
      Dpa_fmm.Expansion.add_inplace
        (Dpa_fmm.Expansion.zero ~p:2)
        (Dpa_fmm.Expansion.zero ~p:3));
  expect_invalid "huge binomial" (fun () -> Dpa_fmm.Expansion.binomial 1000 2)

let test_variant_names () =
  Alcotest.(check string) "dpa" "DPA(50)"
    (Dpa_baselines.Variant.name (Dpa_baselines.Variant.dpa ()));
  Alcotest.(check string) "caching" "Caching(32)"
    (Dpa_baselines.Variant.name (Dpa_baselines.Variant.Caching { capacity = 32 }));
  Alcotest.(check string) "blocking" "Blocking"
    (Dpa_baselines.Variant.name Dpa_baselines.Variant.Blocking)

let test_t3d_defaults () =
  let m = Machine.t3d ~nodes:4 in
  Alcotest.(check bool) "contention-free by default" false
    m.Machine.ingress_serialized;
  Alcotest.(check int) "nodes" 4 m.Machine.nodes

let suites =
  [
    ( "validation",
      [
        Alcotest.test_case "machine" `Quick test_machine_validation;
        Alcotest.test_case "engine" `Quick test_engine_validation;
        Alcotest.test_case "config" `Quick test_config_validation;
        Alcotest.test_case "heap" `Quick test_heap_validation;
        Alcotest.test_case "aggregator" `Quick test_aggregator_validation;
        Alcotest.test_case "update buffer" `Quick test_update_buffer_validation;
        Alcotest.test_case "dcache" `Quick test_dcache_validation;
        Alcotest.test_case "applications" `Quick test_app_validation;
        Alcotest.test_case "expansion" `Quick test_expansion_validation;
        Alcotest.test_case "variant names" `Quick test_variant_names;
        Alcotest.test_case "t3d defaults" `Quick test_t3d_defaults;
      ] );
  ]
