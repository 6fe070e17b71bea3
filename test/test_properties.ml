(* Cross-cutting property tests: randomized workloads through the whole
   stack, and numerical properties of the FMM operators. *)

open Dpa_sim

(* --- randomized runtime equivalence ------------------------------------ *)

(* A random phase description: nodes, objects, and per-node item read
   scatters. Every runtime must compute the same per-node sums. *)
let phase_gen =
  QCheck.Gen.(
    let* nnodes = int_range 1 5 in
    let* nobjs = int_range 1 20 in
    let* nitems = int_range 0 12 in
    let* reads =
      list_size (return (nitems * 3)) (pair (int_range 0 (nnodes - 1)) (int_range 0 (nobjs - 1)))
    in
    return (nnodes, nobjs, nitems, reads))

let build_phase (nnodes, nobjs, nitems, reads) =
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nnodes (fun node ->
        Array.init nobjs (fun slot ->
            Dpa_heap.Heap.alloc heaps.(node)
              ~floats:[| float_of_int ((node * 100) + slot) |]
              ~ptrs:[||]))
  in
  let reads = Array.of_list reads in
  let item_reads node item =
    (* Three reads per item, drawn from the random scatter. *)
    List.init 3 (fun r ->
        if Array.length reads = 0 then ptrs.(0).(0)
        else
          let n, s = reads.(((node * nitems) + item + r) mod Array.length reads) in
          ptrs.(n).(s))
  in
  (heaps, item_reads)

let run_variant (type c) (module A : Dpa.Access.S with type ctx = c)
    run_phase (nnodes, nobjs, nitems, reads) =
  let heaps, item_reads = build_phase (nnodes, nobjs, nitems, reads) in
  let sums = Array.make nnodes 0. in
  let items node =
    Array.init nitems (fun item ->
        fun (ctx : c) ->
          List.iter
            (fun p ->
              A.read ctx p (fun ctx view ->
                  Node.charge_local (A.node ctx) 100;
                  sums.(A.node_id ctx) <-
                    sums.(A.node_id ctx)
                    +. Dpa_heap.Heap.view_float (A.heaps ctx) view 0))
            (item_reads node item))
  in
  run_phase heaps items;
  sums

let qcheck_runtimes_equivalent =
  QCheck.Test.make ~name:"all runtimes compute identical sums (random phases)"
    ~count:60 (QCheck.make phase_gen) (fun spec ->
      let nnodes, _, _, _ = spec in
      let dpa =
        run_variant
          (module Dpa.Runtime)
          (fun heaps items ->
            let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
            ignore
              (Dpa.Runtime.run_phase ~engine ~heaps
                 ~config:(Dpa.Config.dpa ~strip_size:3 ~agg_max:4 ())
                 ~items))
          spec
      in
      let pipeline =
        run_variant
          (module Dpa.Runtime)
          (fun heaps items ->
            let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
            ignore
              (Dpa.Runtime.run_phase ~engine ~heaps
                 ~config:(Dpa.Config.pipeline_only ~strip_size:2 ())
                 ~items))
          spec
      in
      let caching =
        run_variant
          (module Dpa_baselines.Caching)
          (fun heaps items ->
            let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
            ignore
              (Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:7
                 ~items ()))
          spec
      in
      let blocking =
        run_variant
          (module Dpa_baselines.Caching)
          (fun heaps items ->
            let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
            ignore
              (Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:0
                 ~hash:false ~items ()))
          spec
      in
      dpa = pipeline && dpa = caching && dpa = blocking)

(* --- engine stress ------------------------------------------------------ *)

let qcheck_engine_clocks_monotone =
  QCheck.Test.make ~name:"node clocks never run backwards" ~count:100
    QCheck.(
      pair (int_range 1 4)
        (small_list (pair (int_range 0 3) (int_range 0 10_000))))
    (fun (nnodes, posts) ->
      let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
      let ok = ref true in
      let last = Array.make nnodes 0 in
      List.iter
        (fun (node, time) ->
          let node = node mod nnodes in
          Engine.post engine ~time ~node (fun () ->
              let n = Engine.node engine node in
              if n.Node.clock < last.(node) then ok := false;
              last.(node) <- n.Node.clock;
              Node.charge_local n 37))
        posts;
      Engine.run engine;
      !ok && Engine.events_processed engine = List.length posts)

let qcheck_engine_conservation =
  QCheck.Test.make ~name:"clock equals local+comm+idle" ~count:100
    QCheck.(small_list (pair (int_range 0 2) (int_range 0 5_000)))
    (fun posts ->
      let engine = Engine.create (Machine.t3d ~nodes:3) in
      List.iter
        (fun (node, time) ->
          Engine.post engine ~time ~node (fun () ->
              let n = Engine.node engine node in
              Node.charge_local n 11;
              Node.charge_comm n 7))
        posts;
      Engine.run engine;
      Array.for_all
        (fun n ->
          n.Node.clock = n.Node.local_ns + n.Node.comm_ns + n.Node.idle_ns)
        (Engine.nodes engine))

(* --- FMM operator properties ------------------------------------------- *)

let charge_gen =
  QCheck.Gen.(
    list_size (int_range 1 5)
      (pair (float_range 0.1 1.0)
         (map2
            (fun re im -> { Complex.re; im })
            (float_range (-0.4) 0.4) (float_range (-0.4) 0.4))))

let qcheck_multipole_matches_direct =
  QCheck.Test.make ~name:"multipole evaluation matches direct (far field)"
    ~count:100 (QCheck.make charge_gen) (fun charges ->
      let a = Dpa_fmm.Expansion.p2m ~p:24 ~center:Complex.zero charges in
      let z = { Complex.re = 4.0; im = -2.5 } in
      let _, got = Dpa_fmm.Expansion.eval_multipole a ~center:Complex.zero z in
      let _, want = Dpa_fmm.Expansion.direct charges z in
      Complex.norm (Complex.sub got want) < 1e-7)

let qcheck_m2m_preserves_field =
  QCheck.Test.make ~name:"m2m shift preserves the far field" ~count:100
    (QCheck.make charge_gen) (fun charges ->
      let a = Dpa_fmm.Expansion.p2m ~p:24 ~center:Complex.zero charges in
      let c' = { Complex.re = 0.3; im = -0.2 } in
      let b = Dpa_fmm.Expansion.m2m a ~from_center:Complex.zero ~to_center:c' in
      let z = { Complex.re = 5.0; im = 3.0 } in
      let _, va = Dpa_fmm.Expansion.eval_multipole a ~center:Complex.zero z in
      let _, vb = Dpa_fmm.Expansion.eval_multipole b ~center:c' z in
      Complex.norm (Complex.sub va vb) < 1e-7)

(* --- BH physics properties ---------------------------------------------- *)

let qcheck_forces_antisymmetric_two_bodies =
  QCheck.Test.make ~name:"two-body forces are antisymmetric" ~count:100
    QCheck.(
      pair
        (triple (float_range (-1.) 1.) (float_range (-1.) 1.) (float_range 0.1 2.))
        (triple (float_range 2. 3.) (float_range (-1.) 1.) (float_range 0.1 2.)))
    (fun ((x1, y1, m1), (x2, y2, m2)) ->
      let b1 =
        Dpa_bh.Body.make ~id:0 ~mass:m1 ~pos:(Dpa_bh.Vec3.make x1 y1 0.)
          ~vel:Dpa_bh.Vec3.zero
      in
      let b2 =
        Dpa_bh.Body.make ~id:1 ~mass:m2 ~pos:(Dpa_bh.Vec3.make x2 y2 0.)
          ~vel:Dpa_bh.Vec3.zero
      in
      Dpa_bh.Bh_direct.compute_forces ~eps:0. [| b1; b2 |];
      (* m1*a1 = -m2*a2 *)
      Dpa_bh.Vec3.approx_equal ~tol:1e-9
        (Dpa_bh.Vec3.scale m1 b1.Dpa_bh.Body.acc)
        (Dpa_bh.Vec3.scale (-.m2) b2.Dpa_bh.Body.acc))

let test_bh_momentum_conserved () =
  (* Direct forces conserve momentum over a leapfrog step. *)
  let bodies = Dpa_bh.Plummer.generate ~n:100 ~seed:3 in
  Dpa_bh.Bh_direct.compute_forces bodies;
  Dpa_bh.Body.advance bodies ~dt:0.01;
  let p = Dpa_bh.Body.total_momentum bodies in
  Alcotest.(check bool) "momentum ~ 0" true (Dpa_bh.Vec3.norm p < 1e-10)

let suites =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest qcheck_runtimes_equivalent;
        QCheck_alcotest.to_alcotest qcheck_engine_clocks_monotone;
        QCheck_alcotest.to_alcotest qcheck_engine_conservation;
        QCheck_alcotest.to_alcotest qcheck_multipole_matches_direct;
        QCheck_alcotest.to_alcotest qcheck_m2m_preserves_field;
        QCheck_alcotest.to_alcotest qcheck_forces_antisymmetric_two_bodies;
        Alcotest.test_case "momentum conserved" `Quick
          test_bh_momentum_conserved;
      ] );
  ]
