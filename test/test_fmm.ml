open Dpa_fmm

let c re im = { Complex.re; im }
let capprox ?(tol = 1e-9) a b = Complex.norm (Complex.sub a b) <= tol

let test_binomial () =
  Alcotest.(check (float 0.)) "C(5,2)" 10. (Expansion.binomial 5 2);
  Alcotest.(check (float 0.)) "C(0,0)" 1. (Expansion.binomial 0 0);
  Alcotest.(check (float 0.)) "C(3,5)" 0. (Expansion.binomial 3 5);
  Alcotest.(check (float 0.)) "C(20,10)" 184756. (Expansion.binomial 20 10)

(* A couple of well-separated charge/evaluation configurations. *)
let sources = [ (0.7, c 0.1 0.05); (0.3, c 0.05 (-0.08)) ]
let src_center = Complex.zero
let eval_points = [ c 2.0 1.0; c (-1.5) 2.2; c 3.0 (-0.4) ]

let check_phi name got want =
  (* Compare Re(phi) (branch-cut free) and phi'. *)
  let gp, gd = got and wp, wd = want in
  Alcotest.(check (float 1e-8))
    (name ^ " Re phi") wp.Complex.re gp.Complex.re;
  Alcotest.(check bool) (name ^ " phi'") true (capprox ~tol:1e-8 gd wd)

let test_p2m_eval () =
  let a = Expansion.p2m ~p:20 ~center:src_center sources in
  List.iter
    (fun z ->
      check_phi "multipole"
        (Expansion.eval_multipole a ~center:src_center z)
        (Expansion.direct sources z))
    eval_points

let test_m2m () =
  let a = Expansion.p2m ~p:20 ~center:src_center sources in
  let c' = c 0.2 (-0.1) in
  let b = Expansion.m2m a ~from_center:src_center ~to_center:c' in
  List.iter
    (fun z ->
      check_phi "shifted multipole"
        (Expansion.eval_multipole b ~center:c' z)
        (Expansion.direct sources z))
    eval_points

let test_m2l () =
  let a = Expansion.p2m ~p:25 ~center:src_center sources in
  let lc = c 2.0 1.5 in
  let b = Expansion.m2l a ~from_center:src_center ~to_center:lc in
  (* Evaluate near the local center. *)
  List.iter
    (fun z ->
      check_phi "local"
        (Expansion.eval_local b ~center:lc z)
        (Expansion.direct sources z))
    [ c 2.1 1.4; c 1.9 1.6; lc ]

let qcheck_m2l_converges =
  QCheck.Test.make ~name:"m2l error shrinks with order" ~count:30
    QCheck.(pair (float_range 0.2 0.45) (float_range 0.2 0.45))
    (fun (sx, sy) ->
      let srcs = [ (1.0, c sx sy); (0.5, c (-.sx) (0.3 *. sy)) ] in
      let lc = c 3.0 0.5 in
      let z = c 3.1 0.6 in
      let err p =
        let a = Expansion.p2m ~p ~center:Complex.zero srcs in
        let b = Expansion.m2l a ~from_center:Complex.zero ~to_center:lc in
        let _, gd = Expansion.eval_local b ~center:lc z in
        let _, wd = Expansion.direct srcs z in
        Complex.norm (Complex.sub gd wd)
      in
      err 20 <= err 5 +. 1e-12)

let test_quadtree_indexing () =
  let parts = Particle2d.uniform ~n:100 ~seed:3 in
  let t = Quadtree.build ~depth:4 parts in
  Alcotest.(check int) "depth" 4 (Quadtree.depth t);
  Alcotest.(check int) "ncells" (1 + 4 + 16 + 64 + 256) (Quadtree.ncells t);
  Alcotest.(check int) "nleaves" 256 (Quadtree.nleaves t);
  let i = Quadtree.index t ~level:3 ~ix:5 ~iy:2 in
  Alcotest.(check int) "level" 3 (Quadtree.level_of t i);
  Alcotest.(check (pair int int)) "coords" (5, 2) (Quadtree.coords_of t i);
  let p = Quadtree.parent t i in
  Alcotest.(check (pair int int)) "parent coords" (2, 1) (Quadtree.coords_of t p);
  Alcotest.(check int) "ancestor" p (Quadtree.ancestor t i ~level:2)

let test_quadtree_particles_assigned () =
  let parts = Particle2d.uniform ~n:500 ~seed:5 in
  let t = Quadtree.build parts in
  let total =
    Array.fold_left
      (fun acc leaf -> acc + Array.length (Quadtree.leaf_particles t leaf))
      0 (Quadtree.leaves_in_morton_order t)
  in
  Alcotest.(check int) "all particles in leaves" 500 total;
  Array.iter
    (fun p ->
      let leaf = Quadtree.leaf_of_particle t p.Particle2d.id in
      let members = Quadtree.leaf_particles t leaf in
      if not (Array.exists (fun x -> x = p.Particle2d.id) members) then
        Alcotest.fail "particle not in its leaf")
    parts

let test_quadtree_particle_in_cell_bounds () =
  let parts = Particle2d.uniform ~n:300 ~seed:9 in
  let t = Quadtree.build parts in
  Array.iter
    (fun p ->
      let leaf = Quadtree.leaf_of_particle t p.Particle2d.id in
      let ctr = Quadtree.center t leaf and w = Quadtree.width t leaf in
      let dz = Complex.sub p.Particle2d.z ctr in
      Alcotest.(check bool) "inside" true
        (Float.abs dz.Complex.re <= (w /. 2.) +. 1e-12
        && Float.abs dz.Complex.im <= (w /. 2.) +. 1e-12))
    parts

let test_v_list_well_separated () =
  let parts = Particle2d.uniform ~n:64 ~seed:11 in
  let t = Quadtree.build ~depth:4 parts in
  for level = 2 to 4 do
    let side = 1 lsl level in
    for iy = 0 to side - 1 do
      for ix = 0 to side - 1 do
        let ci = Quadtree.index t ~level ~ix ~iy in
        Array.iter
          (fun v ->
            let jx, jy = Quadtree.coords_of t v in
            Alcotest.(check bool) "separated" true
              (max (abs (jx - ix)) (abs (jy - iy)) >= 2);
            Alcotest.(check int) "same level" level (Quadtree.level_of t v);
            (* parent is a neighbor of our parent *)
            let pix, piy = Quadtree.coords_of t (Quadtree.parent t ci) in
            let pjx, pjy = Quadtree.coords_of t (Quadtree.parent t v) in
            Alcotest.(check bool) "parents adjacent" true
              (max (abs (pjx - pix)) (abs (pjy - piy)) <= 1))
          (Quadtree.v_list t ci)
      done
    done
  done

(* The fundamental FMM partition property: for any leaf, the union of the
   ancestors' V lists plus the leaf's U list covers every leaf of the
   domain exactly once (each leaf is either in U, or has exactly one
   ancestor inside exactly one covering V cell). *)
let test_far_near_coverage () =
  let parts = Particle2d.uniform ~n:64 ~seed:13 in
  let t = Quadtree.build ~depth:4 parts in
  let depth = Quadtree.depth t in
  let leaves = Quadtree.leaves_in_morton_order t in
  Array.iter
    (fun leaf ->
      let cover = Hashtbl.create 64 in
      for level = 2 to depth do
        let a = Quadtree.ancestor t leaf ~level in
        Array.iter
          (fun v ->
            Array.iter
              (fun other ->
                let seen = Option.value ~default:0 (Hashtbl.find_opt cover other) in
                Hashtbl.replace cover other (seen + 1))
              (Array.of_list
                 (List.filter
                    (fun l -> Quadtree.ancestor t l ~level:(Quadtree.level_of t v) = v)
                    (Array.to_list leaves))))
          (Quadtree.v_list t a)
      done;
      Array.iter
        (fun u ->
          let seen = Option.value ~default:0 (Hashtbl.find_opt cover u) in
          Hashtbl.replace cover u (seen + 1))
        (Quadtree.u_list t leaf);
      Array.iter
        (fun other ->
          match Hashtbl.find_opt cover other with
          | Some 1 -> ()
          | Some k -> Alcotest.failf "leaf covered %d times" k
          | None -> Alcotest.fail "leaf not covered")
        leaves)
    (Array.sub leaves 0 16)

let test_morton () =
  Alcotest.(check int) "morton(0,0)" 0 (Quadtree.morton ~ix:0 ~iy:0);
  Alcotest.(check int) "morton(1,0)" 1 (Quadtree.morton ~ix:1 ~iy:0);
  Alcotest.(check int) "morton(0,1)" 2 (Quadtree.morton ~ix:0 ~iy:1);
  Alcotest.(check int) "morton(3,5)" 39 (Quadtree.morton ~ix:3 ~iy:5)

let test_fmm_accuracy_vs_direct () =
  let parts = Particle2d.uniform ~n:400 ~seed:17 in
  let tree = Quadtree.build ~target_occupancy:6 parts in
  let approx, _ = Fmm_seq.compute ~p:13 tree in
  let exact = Fmm_direct.compute parts in
  let err = Fmm_direct.max_field_error approx ~reference:exact in
  Alcotest.(check bool) (Printf.sprintf "field error %.2e < 2e-3" err) true
    (err < 2e-3);
  (* Potentials too (up to the softening-free exact comparison). *)
  let worst = ref 0. in
  Array.iteri
    (fun i p ->
      worst := max !worst (Float.abs (p -. exact.Fmm_seq.potential.(i))))
    approx.Fmm_seq.potential;
  Alcotest.(check bool) (Printf.sprintf "potential error %.2e" !worst) true
    (!worst < 2e-3)

let test_fmm_higher_order_more_accurate () =
  let parts = Particle2d.uniform ~n:200 ~seed:19 in
  let tree = Quadtree.build parts in
  let exact = Fmm_direct.compute parts in
  let err p =
    let r, _ = Fmm_seq.compute ~p tree in
    Fmm_direct.max_field_error r ~reference:exact
  in
  Alcotest.(check bool) "p=20 beats p=5" true (err 20 < err 5)

let run_force variant ~nnodes ~nparticles =
  let r = Fmm_run.run ~nnodes ~nparticles variant in
  r

let test_distributed_matches_seq variant name () =
  let r = run_force variant ~nnodes:4 ~nparticles:300 in
  let seq, _ = Fmm_seq.compute ~p:Fmm_force.default_params.Fmm_force.p r.Fmm_run.tree in
  let got = r.Fmm_run.phase.Fmm_run.result in
  Array.iteri
    (fun i want ->
      if Float.abs (want -. got.Fmm_seq.potential.(i)) > 1e-9 then
        Alcotest.failf "%s: potential %d differs (%g vs %g)" name i want
          got.Fmm_seq.potential.(i))
    seq.Fmm_seq.potential;
  Array.iteri
    (fun i want ->
      if not (capprox ~tol:1e-9 want got.Fmm_seq.field.(i)) then
        Alcotest.failf "%s: field %d differs" name i)
    seq.Fmm_seq.field

let test_fmm_dpa_beats_blocking () =
  let t variant =
    (run_force variant ~nnodes:4 ~nparticles:600).Fmm_run.phase.Fmm_run
      .breakdown.Dpa_sim.Breakdown.elapsed_ns
  in
  Alcotest.(check bool) "dpa faster" true
    (t (Dpa_baselines.Variant.dpa ()) < t Dpa_baselines.Variant.Blocking)

let test_structural_counts_match () =
  let parts = Particle2d.uniform ~n:300 ~seed:29 in
  let tree = Quadtree.build parts in
  let _, counted = Fmm_seq.compute ~p:8 tree in
  let structural = Fmm_run.structural_counts tree in
  Alcotest.(check int) "m2l" counted.Fmm_seq.m2l structural.Fmm_seq.m2l;
  Alcotest.(check int) "evals" counted.Fmm_seq.evals structural.Fmm_seq.evals;
  (* p2p: Fmm_seq counts all source entries including self-pairs skipped by
     distance inside [direct]; structural_counts does the same. *)
  Alcotest.(check int) "p2p" counted.Fmm_seq.p2p structural.Fmm_seq.p2p

let suites =
  [
    ( "fmm.expansion",
      [
        Alcotest.test_case "binomials" `Quick test_binomial;
        Alcotest.test_case "p2m/eval" `Quick test_p2m_eval;
        Alcotest.test_case "m2m" `Quick test_m2m;
        Alcotest.test_case "m2l" `Quick test_m2l;
        QCheck_alcotest.to_alcotest qcheck_m2l_converges;
      ] );
    ( "fmm.quadtree",
      [
        Alcotest.test_case "indexing" `Quick test_quadtree_indexing;
        Alcotest.test_case "particles assigned" `Quick
          test_quadtree_particles_assigned;
        Alcotest.test_case "particles in bounds" `Quick
          test_quadtree_particle_in_cell_bounds;
        Alcotest.test_case "v-list separation" `Quick test_v_list_well_separated;
        Alcotest.test_case "far/near coverage" `Quick test_far_near_coverage;
        Alcotest.test_case "morton" `Quick test_morton;
      ] );
    ( "fmm.accuracy",
      [
        Alcotest.test_case "vs direct" `Quick test_fmm_accuracy_vs_direct;
        Alcotest.test_case "order improves accuracy" `Quick
          test_fmm_higher_order_more_accurate;
      ] );
    ( "fmm.force",
      [
        Alcotest.test_case "dpa matches sequential" `Quick
          (test_distributed_matches_seq (Dpa_baselines.Variant.dpa ()) "dpa");
        Alcotest.test_case "caching matches sequential" `Quick
          (test_distributed_matches_seq
             (Dpa_baselines.Variant.Caching { capacity = 256 })
             "caching");
        Alcotest.test_case "blocking matches sequential" `Quick
          (test_distributed_matches_seq Dpa_baselines.Variant.Blocking
             "blocking");
        Alcotest.test_case "dpa beats blocking" `Quick test_fmm_dpa_beats_blocking;
        Alcotest.test_case "structural counts" `Quick
          test_structural_counts_match;
      ] );
  ]
