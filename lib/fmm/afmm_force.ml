open Dpa_heap

module Make (A : Dpa.Access.S) = struct
  let items ~(params : Fmm_force.params) ~(global : Afmm_global.t) ~potential
      ~field node =
    let tree = global.Afmm_global.tree in
    let parts = Aquadtree.particles tree in
    let p = global.Afmm_global.p in
    Array.map
      (fun leaf ->
        let mine =
          match Aquadtree.kind tree leaf with
          | Aquadtree.Leaf ids -> ids
          | Aquadtree.Internal _ -> assert false
        in
        let lc = Aquadtree.center tree leaf in
        let lw = Aquadtree.width tree leaf in
        let rec walk ctx (view : Heap.view) =
          let heaps = A.heaps ctx and node = A.node ctx in
          Dpa_sim.Node.charge_local node params.Fmm_force.visit_ns;
          if
            Afmm_global.View.well_separated ~leaf_center:lc ~leaf_width:lw heaps
              view
          then begin
            Dpa_sim.Node.charge_local node
              (Fmm_force.m2l_cost_ns params
              + (Array.length mine * Fmm_force.eval_cost_ns params));
            let local =
              Expansion.m2l
                (Afmm_global.View.expansion ~p heaps view)
                ~from_center:(Afmm_global.View.center heaps view) ~to_center:lc
            in
            Array.iter
              (fun pid ->
                let phi, dphi =
                  Expansion.eval_local local ~center:lc parts.(pid).Particle2d.z
                in
                potential.(pid) <- potential.(pid) +. phi.Complex.re;
                field.(pid) <- Complex.add field.(pid) dphi)
              mine
          end
          else if Afmm_global.View.is_leaf heaps view then begin
            let nsrc = Afmm_global.View.nparticles ~p heaps view in
            Dpa_sim.Node.charge_local node
              (Array.length mine * nsrc * params.Fmm_force.p2p_ns);
            let srcs =
              List.init nsrc (fun k ->
                  let _, q, z = Afmm_global.View.particle ~p heaps view k in
                  (q, z))
            in
            Array.iter
              (fun pid ->
                let phi, dphi =
                  Expansion.direct srcs parts.(pid).Particle2d.z
                in
                potential.(pid) <- potential.(pid) +. phi.Complex.re;
                field.(pid) <- Complex.add field.(pid) dphi)
              mine
          end
          else
            Array.iter
              (fun child -> if not (Gptr.is_nil child) then A.read ctx child walk)
              (Afmm_global.View.children heaps view)
        in
        fun (ctx : A.ctx) ->
          if Array.length mine > 0 then
            A.read ctx global.Afmm_global.root walk)
      global.Afmm_global.owner_leaves.(node)
end

let force_phase ~engine ~global ~params variant =
  let n = Array.length (Aquadtree.particles global.Afmm_global.tree) in
  let potential = Array.make n 0. and field = Array.make n Complex.zero in
  let items (type c) (module A : Dpa.Access.S with type ctx = c) =
    let module F = Make (A) in
    F.items ~params ~global ~potential ~field
  in
  let breakdown, stats =
    Dpa_baselines.Variant.run_phase variant ~label:"afmm-force" ~engine
      ~heaps:global.Afmm_global.heaps { items }
  in
  ( breakdown,
    { Fmm_seq.potential; field },
    Dpa_baselines.Variant.dpa_stats stats )

let run ?machine ?(params = Fmm_force.default_params) ?(leaf_cap = 8)
    ?(seed = 23) ?(distribution = `Uniform) ~nnodes ~nparticles variant =
  let machine =
    match machine with Some m -> m | None -> Dpa_sim.Machine.t3d ~nodes:nnodes
  in
  let parts =
    match distribution with
    | `Uniform -> Particle2d.uniform ~n:nparticles ~seed
    | `Clustered clusters -> Particle2d.clustered ~n:nparticles ~seed ~clusters
  in
  let tree = Aquadtree.build ~leaf_cap parts in
  let global = Afmm_global.distribute ~p:params.Fmm_force.p tree ~nnodes in
  let engine = Dpa_sim.Engine.create machine in
  let breakdown, result, _ = force_phase ~engine ~global ~params variant in
  (breakdown, result, tree)
