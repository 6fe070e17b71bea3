open Dpa_sim

type phase_result = {
  breakdown : Breakdown.t;
  result : Fmm_seq.result;
  dpa_stats : Dpa.Dpa_stats.t option;
}

let force_phase ~engine ~global ~params variant =
  let n = Array.length (Quadtree.particles global.Fmm_global.tree) in
  let potential = Array.make n 0. and field = Array.make n Complex.zero in
  let items (type c) (module A : Dpa.Access.S with type ctx = c) =
    let module F = Fmm_force.Make (A) in
    F.items ~params ~global ~potential ~field
  in
  let breakdown, stats =
    Dpa_baselines.Variant.run_phase variant ~label:"fmm-force" ~engine
      ~heaps:global.Fmm_global.heaps { items }
  in
  {
    breakdown;
    result = { Fmm_seq.potential; field };
    dpa_stats = Dpa_baselines.Variant.dpa_stats stats;
  }

type run_result = {
  phase : phase_result;
  seq_counts : Fmm_seq.counts;
  tree : Quadtree.t;
}

let structural_counts tree =
  let depth = Quadtree.depth tree in
  let counts = ref Fmm_seq.zero_counts in
  Array.iter
    (fun leaf ->
      let mine = Array.length (Quadtree.leaf_particles tree leaf) in
      if mine > 0 then begin
        for level = 2 to depth do
          let a = Quadtree.ancestor tree leaf ~level in
          let nv = Array.length (Quadtree.v_list tree a) in
          counts :=
            {
              !counts with
              Fmm_seq.m2l = !counts.Fmm_seq.m2l + nv;
              evals = !counts.Fmm_seq.evals + (nv * mine);
            }
        done;
        Array.iter
          (fun u ->
            let nsrc = Array.length (Quadtree.leaf_particles tree u) in
            counts :=
              { !counts with Fmm_seq.p2p = !counts.Fmm_seq.p2p + (mine * nsrc) })
          (Quadtree.u_list tree leaf)
      end)
    (Quadtree.leaves_in_morton_order tree);
  !counts

let sequential_ns ~(params : Fmm_force.params) (c : Fmm_seq.counts) =
  (c.Fmm_seq.m2l * (Fmm_force.m2l_cost_ns params + params.Fmm_force.visit_ns))
  + (c.Fmm_seq.evals * Fmm_force.eval_cost_ns params)
  + (c.Fmm_seq.p2p * params.Fmm_force.p2p_ns)

let run ?machine ?(params = Fmm_force.default_params) ?(target_occupancy = 8)
    ?(seed = 23) ?(distribution = `Uniform) ~nnodes ~nparticles variant =
  let machine =
    match machine with Some m -> m | None -> Machine.t3d ~nodes:nnodes
  in
  let parts =
    match distribution with
    | `Uniform -> Particle2d.uniform ~n:nparticles ~seed
    | `Clustered clusters -> Particle2d.clustered ~n:nparticles ~seed ~clusters
  in
  let tree = Quadtree.build ~target_occupancy parts in
  let global = Fmm_global.distribute ~p:params.Fmm_force.p tree ~nnodes in
  let engine = Engine.create machine in
  let phase = force_phase ~engine ~global ~params variant in
  { phase; seq_counts = structural_counts tree; tree }
