open Dpa_bh

let vec3 =
  Alcotest.testable
    (fun ppf (v : Vec3.t) -> Format.fprintf ppf "(%g, %g, %g)" v.x v.y v.z)
    (Vec3.approx_equal ~tol:1e-12)

let test_vec3_ops () =
  let a = Vec3.make 1. 2. 3. and b = Vec3.make 4. (-5.) 6. in
  Alcotest.check vec3 "add" (Vec3.make 5. (-3.) 9.) (Vec3.add a b);
  Alcotest.check vec3 "sub" (Vec3.make (-3.) 7. (-3.)) (Vec3.sub a b);
  Alcotest.(check (float 1e-12)) "norm" (sqrt 14.) (Vec3.norm a);
  Alcotest.check vec3 "axpy" (Vec3.make 6. (-1.) 12.) (Vec3.axpy 2. a b)

let test_plummer_deterministic () =
  let a = Plummer.generate ~n:64 ~seed:3 and b = Plummer.generate ~n:64 ~seed:3 in
  Array.iteri
    (fun i x ->
      Alcotest.check vec3 "same pos" x.Body.pos b.(i).Body.pos;
      Alcotest.check vec3 "same vel" x.Body.vel b.(i).Body.vel)
    a

let test_plummer_com_frame () =
  let bodies = Plummer.generate ~n:500 ~seed:5 in
  let p = Body.total_momentum bodies in
  Alcotest.(check bool) "momentum ~ 0" true (Vec3.norm p < 1e-10);
  let total_mass = Array.fold_left (fun a b -> a +. b.Body.mass) 0. bodies in
  Alcotest.(check (float 1e-9)) "unit mass" 1.0 total_mass

let test_octree_contains_all_bodies () =
  let bodies = Plummer.generate ~n:300 ~seed:7 in
  let tree = Octree.build bodies in
  Alcotest.(check int) "root holds all" 300 (Octree.nbodies tree (Octree.root tree));
  let order = Octree.dfs_body_order tree in
  Alcotest.(check int) "order covers all" 300 (Array.length order);
  let sorted = Array.copy order in
  Array.sort compare sorted;
  Array.iteri (fun i v -> Alcotest.(check int) "is a permutation" i v) sorted

let test_octree_leaf_cap () =
  let bodies = Plummer.generate ~n:200 ~seed:11 in
  let cap = 4 in
  let tree = Octree.build ~leaf_cap:cap bodies in
  for ci = 0 to Octree.ncells tree - 1 do
    match Octree.kind tree ci with
    | Octree.Leaf ids ->
      if Array.length ids > cap then Alcotest.fail "leaf over capacity"
    | Octree.Internal _ -> ()
  done

let test_octree_mass_conservation () =
  let bodies = Plummer.generate ~n:128 ~seed:13 in
  let tree = Octree.build bodies in
  Alcotest.(check (float 1e-9)) "root mass" 1.0 (Octree.mass tree (Octree.root tree))

let test_octree_com () =
  let bodies = Plummer.generate ~n:128 ~seed:13 in
  let tree = Octree.build bodies in
  let want = ref Vec3.zero in
  Array.iter (fun b -> want := Vec3.axpy b.Body.mass b.Body.pos !want) bodies;
  let want = Vec3.scale (1. /. Octree.mass tree (Octree.root tree)) !want in
  Alcotest.(check bool) "root com" true
    (Vec3.approx_equal ~tol:1e-9 want (Octree.com tree (Octree.root tree)))

let qcheck_octree_bodies_in_bounds =
  QCheck.Test.make ~name:"octree cubes contain their bodies" ~count:30
    QCheck.(int_range 2 100)
    (fun n ->
      let bodies = Plummer.uniform_cube ~n ~seed:n in
      let tree = Octree.build ~leaf_cap:2 bodies in
      let ok = ref true in
      for ci = 0 to Octree.ncells tree - 1 do
        match Octree.kind tree ci with
        | Octree.Leaf ids ->
          let c = Octree.center tree ci and h = Octree.half tree ci in
          Array.iter
            (fun bid ->
              let p = bodies.(bid).Body.pos in
              let inside =
                Float.abs (p.Vec3.x -. c.Vec3.x) <= h +. 1e-9
                && Float.abs (p.Vec3.y -. c.Vec3.y) <= h +. 1e-9
                && Float.abs (p.Vec3.z -. c.Vec3.z) <= h +. 1e-9
              in
              if not inside then ok := false)
            ids
        | Octree.Internal _ -> ()
      done;
      !ok)

let test_bh_accuracy_vs_direct () =
  let bodies = Plummer.generate ~n:256 ~seed:19 in
  let tree = Octree.build bodies in
  ignore (Bh_seq.compute_forces ~theta:0.5 tree);
  let approx = Array.map (fun b -> b.Body.acc) bodies in
  Bh_direct.compute_forces bodies;
  let exact = Array.map (fun b -> b.Body.acc) bodies in
  let worst = ref 0. in
  Array.iteri
    (fun i a ->
      let n = Vec3.norm exact.(i) in
      if n > 0. then worst := max !worst (Vec3.dist a exact.(i) /. n))
    approx;
  Alcotest.(check bool)
    (Printf.sprintf "theta=0.5 error %.4f < 0.02" !worst)
    true (!worst < 0.02)

let test_bh_theta_zero_is_direct () =
  (* theta = 0 opens every cell: identical interactions to direct sum. *)
  let bodies = Plummer.generate ~n:64 ~seed:23 in
  let tree = Octree.build ~leaf_cap:1 bodies in
  ignore (Bh_seq.compute_forces ~theta:0. tree);
  let approx = Array.map (fun b -> b.Body.acc) bodies in
  Bh_direct.compute_forces bodies;
  Array.iteri
    (fun i a ->
      Alcotest.(check bool) "matches direct" true
        (Vec3.approx_equal ~tol:1e-9 a bodies.(i).Body.acc))
    approx

let test_distribute_preserves_tree () =
  let bodies = Plummer.generate ~n:200 ~seed:29 in
  let octree = Octree.build bodies in
  let nnodes = 4 in
  let g = Bh_global.distribute octree ~nnodes in
  (* Every body appears exactly once across owner lists. *)
  let seen = Array.make 200 0 in
  Array.iter
    (Array.iter (fun bid -> seen.(bid) <- seen.(bid) + 1))
    g.Bh_global.owner_bodies;
  Array.iter (fun c -> Alcotest.(check int) "owned once" 1 c) seen;
  (* Heap objects mirror the octree cells. *)
  Alcotest.(check int) "all cells allocated" (Octree.ncells octree)
    (Dpa_heap.Heap.total_objects g.Bh_global.heaps);
  let heaps = g.Bh_global.heaps in
  let root_view = g.Bh_global.root in
  (* Float 0 of a cell object is its kind, float 4 its mass. *)
  Alcotest.(check (float 1e-12))
    "root mass" 1.0
    (Dpa_heap.Heap.view_float heaps root_view 4);
  Alcotest.(check bool)
    "root internal" false
    (Dpa_heap.Heap.view_float heaps root_view 0 = Bh_global.kind_leaf)

let run_force variant ~nnodes ~nbodies =
  let bodies = Plummer.generate ~n:nbodies ~seed:31 in
  let octree = Octree.build bodies in
  let tree = Bh_global.distribute octree ~nnodes in
  let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:nnodes) in
  let r =
    Bh_run.force_phase ~engine ~tree ~bodies ~params:Bh_force.default_params
      variant
  in
  (bodies, octree, r)

let seq_reference octree =
  let p = Bh_force.default_params in
  Array.map
    (fun b -> Bh_seq.force_on ~theta:p.Bh_force.theta ~eps:p.Bh_force.eps octree b)
    (Octree.bodies octree)

let check_matches_seq name (bodies, octree, (r : Bh_run.phase_result)) =
  let reference = seq_reference octree in
  Array.iteri
    (fun i want ->
      if not (Vec3.approx_equal ~tol:1e-9 want r.Bh_run.accs.(i)) then
        Alcotest.failf "%s: body %d differs from sequential" name i)
    reference;
  ignore bodies

let test_force_dpa_matches_seq () =
  check_matches_seq "dpa"
    (run_force (Dpa_baselines.Variant.dpa ()) ~nnodes:4 ~nbodies:300)

let test_force_caching_matches_seq () =
  check_matches_seq "caching"
    (run_force (Dpa_baselines.Variant.Caching { capacity = 128 }) ~nnodes:4
       ~nbodies:300)

let test_force_blocking_matches_seq () =
  check_matches_seq "blocking"
    (run_force Dpa_baselines.Variant.Blocking ~nnodes:3 ~nbodies:200)

let test_force_prefetch_matches_seq () =
  check_matches_seq "prefetch"
    (run_force (Dpa_baselines.Variant.Prefetch { strip_size = 20 }) ~nnodes:3
       ~nbodies:200)

let test_force_single_node_matches_seq () =
  check_matches_seq "dpa single node"
    (run_force (Dpa_baselines.Variant.dpa ()) ~nnodes:1 ~nbodies:200)

let test_dpa_beats_blocking_bh () =
  let _, _, dpa = run_force (Dpa_baselines.Variant.dpa ()) ~nnodes:4 ~nbodies:400 in
  let _, _, blk = run_force Dpa_baselines.Variant.Blocking ~nnodes:4 ~nbodies:400 in
  Alcotest.(check bool) "dpa faster" true
    (dpa.Bh_run.breakdown.Dpa_sim.Breakdown.elapsed_ns
    < blk.Bh_run.breakdown.Dpa_sim.Breakdown.elapsed_ns)

let test_simulate_multi_step () =
  let r =
    Bh_run.simulate ~nnodes:2 ~nbodies:100 ~nsteps:3
      (Dpa_baselines.Variant.dpa ())
  in
  Alcotest.(check int) "three steps" 3 (List.length r.Bh_run.steps);
  Alcotest.(check bool) "time accumulated" true
    (r.Bh_run.total.Dpa_sim.Breakdown.elapsed_ns > 0);
  (* Bodies moved. *)
  let init = Plummer.generate ~n:100 ~seed:17 in
  let moved = ref false in
  Array.iteri
    (fun i b ->
      if not (Vec3.approx_equal b.Body.pos init.(i).Body.pos) then moved := true)
    r.Bh_run.bodies;
  Alcotest.(check bool) "bodies moved" true !moved

(* --- Morton repartitioning determinism ----------------------------------- *)

(* Repartitioning only moves ownership cuts along Morton order; the force
   sums are grid-exact, so the trajectory must be bit-identical to the
   statically partitioned run, with or without faults, and a seeded fault
   cocktail must replay itself exactly. *)
let repartition_bodies ?faults ?(fault_seed = 7) ~repartition () =
  let machine = Dpa_sim.Machine.make ~nodes:4 ?faults ~fault_seed () in
  (Bh_run.simulate ~machine ~nnodes:4 ~nbodies:120 ~nsteps:3 ~repartition
     (Dpa_baselines.Variant.dpa ~strip_size:10 ()))
    .Bh_run.bodies

let test_repartition_forces_bit_identical () =
  let static = repartition_bodies ~repartition:false () in
  let dynamic = repartition_bodies ~repartition:true () in
  Alcotest.(check bool) "repartitioned trajectory bit-identical to static"
    true (static = dynamic)

let test_repartition_deterministic_under_faults () =
  let reference = repartition_bodies ~repartition:true () in
  let heavy =
    repartition_bodies ~faults:Workload.heavy_faults ~repartition:true ()
  in
  Alcotest.(check bool) "heavy faults leave the trajectory untouched" true
    (reference = heavy);
  let crashy =
    {
      Workload.heavy_faults with
      Dpa_sim.Fault.crashes = 1;
      crash_ns = 20_000;
      outage_horizon_ns = 200_000;
    }
  in
  let crashed = repartition_bodies ~faults:crashy ~repartition:true () in
  let crashed2 = repartition_bodies ~faults:crashy ~repartition:true () in
  Alcotest.(check bool) "crash-restarts leave the trajectory untouched" true
    (reference = crashed);
  Alcotest.(check bool) "crash schedule replays bit-identically" true
    (crashed = crashed2)

let test_simulate_runtimes_agree_over_steps () =
  let final variant =
    (Bh_run.simulate ~nnodes:3 ~nbodies:80 ~nsteps:2 variant).Bh_run.bodies
  in
  let a = final (Dpa_baselines.Variant.dpa ()) in
  let b = final Dpa_baselines.Variant.Blocking in
  Array.iteri
    (fun i x ->
      Alcotest.(check bool) "same trajectory" true
        (Vec3.approx_equal ~tol:1e-7 x.Body.pos b.(i).Body.pos))
    a

let suites =
  [
    ( "bh.vec3",
      [ Alcotest.test_case "ops" `Quick test_vec3_ops ] );
    ( "bh.plummer",
      [
        Alcotest.test_case "deterministic" `Quick test_plummer_deterministic;
        Alcotest.test_case "com frame" `Quick test_plummer_com_frame;
      ] );
    ( "bh.octree",
      [
        Alcotest.test_case "contains all bodies" `Quick
          test_octree_contains_all_bodies;
        Alcotest.test_case "leaf capacity" `Quick test_octree_leaf_cap;
        Alcotest.test_case "mass conservation" `Quick
          test_octree_mass_conservation;
        Alcotest.test_case "center of mass" `Quick test_octree_com;
        QCheck_alcotest.to_alcotest qcheck_octree_bodies_in_bounds;
      ] );
    ( "bh.accuracy",
      [
        Alcotest.test_case "vs direct (theta=0.5)" `Quick
          test_bh_accuracy_vs_direct;
        Alcotest.test_case "theta=0 equals direct" `Quick
          test_bh_theta_zero_is_direct;
      ] );
    ( "bh.distribute",
      [ Alcotest.test_case "preserves tree" `Quick test_distribute_preserves_tree ] );
    ( "bh.force",
      [
        Alcotest.test_case "dpa matches sequential" `Quick
          test_force_dpa_matches_seq;
        Alcotest.test_case "caching matches sequential" `Quick
          test_force_caching_matches_seq;
        Alcotest.test_case "blocking matches sequential" `Quick
          test_force_blocking_matches_seq;
        Alcotest.test_case "prefetch matches sequential" `Quick
          test_force_prefetch_matches_seq;
        Alcotest.test_case "single node matches sequential" `Quick
          test_force_single_node_matches_seq;
        Alcotest.test_case "dpa beats blocking" `Quick test_dpa_beats_blocking_bh;
      ] );
    ( "bh.simulate",
      [
        Alcotest.test_case "multi step" `Quick test_simulate_multi_step;
        Alcotest.test_case "runtimes agree over steps" `Quick
          test_simulate_runtimes_agree_over_steps;
        Alcotest.test_case "repartition bit-identical to static" `Quick
          test_repartition_forces_bit_identical;
        Alcotest.test_case "repartition deterministic under faults" `Quick
          test_repartition_deterministic_under_faults;
      ] );
  ]
