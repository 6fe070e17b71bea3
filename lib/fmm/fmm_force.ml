type params = {
  p : int;
  m2l_term2_ns : int;
  eval_term_ns : int;
  p2p_ns : int;
  visit_ns : int;
}

let default_params =
  { p = 13; m2l_term2_ns = 26; eval_term_ns = 45; p2p_ns = 170; visit_ns = 150 }

let m2l_cost_ns t = t.m2l_term2_ns * (t.p + 1) * (t.p + 1)
let eval_cost_ns t = t.eval_term_ns * (t.p + 1)

module Make (A : Dpa.Access.S) = struct
  let items ~params ~global ~potential ~field node =
    let tree = global.Fmm_global.tree in
    let parts = Quadtree.particles tree in
    let depth = Quadtree.depth tree in
    Array.map
      (fun leaf ->
        let mine = Quadtree.leaf_particles tree leaf in
        let lc = Quadtree.center tree leaf in
        fun (ctx : A.ctx) ->
          if Array.length mine > 0 then begin
            for level = 2 to depth do
              let a = Quadtree.ancestor tree leaf ~level in
              Array.iter
                (fun v ->
                  let vc = Quadtree.center tree v in
                  A.read ctx global.Fmm_global.mp_ptrs.(v) (fun ctx view ->
                      Dpa_sim.Node.charge_local (A.node ctx)
                        (params.visit_ns + m2l_cost_ns params
                        + (Array.length mine * eval_cost_ns params));
                      let local =
                        Expansion.m2l
                          (Fmm_global.View.expansion (A.heaps ctx) view)
                          ~from_center:vc ~to_center:lc
                      in
                      Array.iter
                        (fun pid ->
                          let phi, dphi =
                            Expansion.eval_local local ~center:lc
                              parts.(pid).Particle2d.z
                          in
                          potential.(pid) <- potential.(pid) +. phi.Complex.re;
                          field.(pid) <- Complex.add field.(pid) dphi)
                        mine))
                (Quadtree.v_list tree a)
            done;
            Array.iter
              (fun u ->
                A.read ctx global.Fmm_global.leaf_ptrs.(u) (fun ctx view ->
                    let heaps = A.heaps ctx in
                    let nsrc = Fmm_global.View.nparticles heaps view in
                    Dpa_sim.Node.charge_local (A.node ctx)
                      (params.visit_ns
                      + (Array.length mine * nsrc * params.p2p_ns));
                    let srcs =
                      List.init nsrc (fun k ->
                          let _, q, z = Fmm_global.View.particle heaps view k in
                          (q, z))
                    in
                    Array.iter
                      (fun pid ->
                        let phi, dphi =
                          Expansion.direct srcs parts.(pid).Particle2d.z
                        in
                        potential.(pid) <- potential.(pid) +. phi.Complex.re;
                        field.(pid) <- Complex.add field.(pid) dphi)
                      mine))
              (Quadtree.u_list tree leaf)
          end)
      global.Fmm_global.owner_leaves.(node)
end
