open Dpa_fmm

let capprox ?(tol = 1e-9) a b = Complex.norm (Complex.sub a b) <= tol

let test_build_counts () =
  let parts = Particle2d.clustered ~n:400 ~seed:3 ~clusters:4 in
  let t = Aquadtree.build ~leaf_cap:10 parts in
  Alcotest.(check int) "root holds all" 400 (Aquadtree.nparticles t (Aquadtree.root t));
  let total =
    Array.fold_left
      (fun acc leaf ->
        match Aquadtree.kind t leaf with
        | Aquadtree.Leaf ids -> acc + Array.length ids
        | Aquadtree.Internal _ -> acc)
      0 (Aquadtree.leaves_in_dfs_order t)
  in
  Alcotest.(check int) "leaves hold all" 400 total

let test_adaptive_refines_clusters () =
  (* A clustered input must produce a deeper tree than a uniform one. *)
  let uni = Aquadtree.build (Particle2d.uniform ~n:1000 ~seed:7) in
  let clu =
    Aquadtree.build (Particle2d.clustered ~n:1000 ~seed:7 ~clusters:2)
  in
  Alcotest.(check bool)
    (Printf.sprintf "clustered deeper (%d > %d)" (Aquadtree.depth clu)
       (Aquadtree.depth uni))
    true
    (Aquadtree.depth clu > Aquadtree.depth uni)

let test_leaf_cap_respected () =
  let parts = Particle2d.uniform ~n:500 ~seed:9 in
  let t = Aquadtree.build ~leaf_cap:5 parts in
  Array.iter
    (fun leaf ->
      match Aquadtree.kind t leaf with
      | Aquadtree.Leaf ids ->
        if Array.length ids > 5 then Alcotest.fail "leaf over capacity"
      | Aquadtree.Internal _ -> ())
    (Aquadtree.leaves_in_dfs_order t)

(* The fundamental decomposition property: for every leaf, the dual walk
   covers every particle of the system exactly once (as a multipole member
   or a direct source). *)
let test_walk_coverage () =
  let parts = Particle2d.clustered ~n:200 ~seed:11 ~clusters:3 in
  let t = Aquadtree.build ~leaf_cap:6 parts in
  Array.iter
    (fun leaf ->
      let covered = Array.make 200 0 in
      let rec mark ci by =
        match Aquadtree.kind t ci with
        | Aquadtree.Leaf ids -> Array.iter (fun pid -> covered.(pid) <- covered.(pid) + by) ids
        | Aquadtree.Internal children ->
          Array.iter (fun ch -> if ch >= 0 then mark ch by) children
      in
      let rec walk ci =
        if Aquadtree.well_separated t ~leaf ci then mark ci 1
        else
          match Aquadtree.kind t ci with
          | Aquadtree.Leaf ids ->
            Array.iter (fun pid -> covered.(pid) <- covered.(pid) + 1) ids
          | Aquadtree.Internal children ->
            Array.iter (fun ch -> if ch >= 0 then walk ch) children
      in
      walk (Aquadtree.root t);
      Array.iteri
        (fun pid c ->
          if c <> 1 then
            Alcotest.failf "leaf %d covers particle %d %d times" leaf pid c)
        covered)
    (Aquadtree.leaves_in_dfs_order t)

let test_afmm_accuracy_uniform () =
  let parts = Particle2d.uniform ~n:400 ~seed:13 in
  let t = Aquadtree.build parts in
  let approx, p2p = Afmm_seq.compute ~p:13 t in
  let exact = Fmm_direct.compute parts in
  let err = Fmm_direct.max_field_error approx ~reference:exact in
  Alcotest.(check bool) (Printf.sprintf "err %.2e < 5e-3" err) true (err < 5e-3);
  Alcotest.(check bool) "fewer p2p than direct" true
    (p2p < 400 * 400)

let test_afmm_accuracy_clustered () =
  let parts = Particle2d.clustered ~n:400 ~seed:17 ~clusters:3 in
  let t = Aquadtree.build parts in
  let approx, _ = Afmm_seq.compute ~p:13 t in
  let exact = Fmm_direct.compute parts in
  let err = Fmm_direct.max_field_error approx ~reference:exact in
  Alcotest.(check bool) (Printf.sprintf "err %.2e < 5e-3" err) true (err < 5e-3)

let test_afmm_order_improves () =
  let parts = Particle2d.uniform ~n:200 ~seed:19 in
  let t = Aquadtree.build parts in
  let exact = Fmm_direct.compute parts in
  let err p =
    let r, _ = Afmm_seq.compute ~p t in
    Fmm_direct.max_field_error r ~reference:exact
  in
  Alcotest.(check bool) "p=20 beats p=6" true (err 20 < err 6)

let run_distributed variant ~nparticles ~distribution =
  Afmm_force.run ~nnodes:4 ~nparticles ~distribution ~seed:23 variant

let test_distributed_matches_seq variant name () =
  let _, got, tree =
    run_distributed variant ~nparticles:300 ~distribution:(`Clustered 3)
  in
  let want, _ = Afmm_seq.compute ~p:Fmm_force.default_params.Fmm_force.p tree in
  Array.iteri
    (fun i w ->
      if Float.abs (w -. got.Fmm_seq.potential.(i)) > 1e-9 then
        Alcotest.failf "%s: potential %d" name i)
    want.Fmm_seq.potential;
  Array.iteri
    (fun i w ->
      if not (capprox ~tol:1e-9 w got.Fmm_seq.field.(i)) then
        Alcotest.failf "%s: field %d" name i)
    want.Fmm_seq.field

let test_afmm_dpa_beats_blocking () =
  let t variant =
    let b, _, _ =
      run_distributed variant ~nparticles:600 ~distribution:`Uniform
    in
    b.Dpa_sim.Breakdown.elapsed_ns
  in
  Alcotest.(check bool) "dpa faster" true
    (t (Dpa_baselines.Variant.dpa ()) < t Dpa_baselines.Variant.Blocking)

let test_adaptive_beats_uniform_on_clusters () =
  (* The adaptive tree's p2p work on a clustered input must be far below
     the complete tree's (whose fixed-depth leaves overflow). *)
  let parts = Particle2d.clustered ~n:2000 ~seed:29 ~clusters:2 in
  let at = Aquadtree.build ~leaf_cap:8 parts in
  let _, ap2p = Afmm_seq.compute ~p:8 at in
  let ut = Quadtree.build ~target_occupancy:8 parts in
  let uc = Dpa_fmm.Fmm_run.structural_counts ut in
  Alcotest.(check bool)
    (Printf.sprintf "adaptive p2p %d << uniform p2p %d" ap2p
       uc.Fmm_seq.p2p)
    true
    (ap2p * 4 < uc.Fmm_seq.p2p)

let suites =
  [
    ( "afmm.tree",
      [
        Alcotest.test_case "build counts" `Quick test_build_counts;
        Alcotest.test_case "refines clusters" `Quick
          test_adaptive_refines_clusters;
        Alcotest.test_case "leaf cap" `Quick test_leaf_cap_respected;
        Alcotest.test_case "walk coverage" `Quick test_walk_coverage;
      ] );
    ( "afmm.accuracy",
      [
        Alcotest.test_case "uniform vs direct" `Quick test_afmm_accuracy_uniform;
        Alcotest.test_case "clustered vs direct" `Quick
          test_afmm_accuracy_clustered;
        Alcotest.test_case "order improves" `Quick test_afmm_order_improves;
      ] );
    ( "afmm.force",
      [
        Alcotest.test_case "dpa matches sequential" `Quick
          (test_distributed_matches_seq (Dpa_baselines.Variant.dpa ()) "dpa");
        Alcotest.test_case "caching matches sequential" `Quick
          (test_distributed_matches_seq
             (Dpa_baselines.Variant.Caching { capacity = 512 })
             "caching");
        Alcotest.test_case "blocking matches sequential" `Quick
          (test_distributed_matches_seq Dpa_baselines.Variant.Blocking
             "blocking");
        Alcotest.test_case "dpa beats blocking" `Quick
          test_afmm_dpa_beats_blocking;
        Alcotest.test_case "adaptive beats uniform on clusters" `Quick
          test_adaptive_beats_uniform_on_clusters;
      ] );
  ]
