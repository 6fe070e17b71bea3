open Dpa_sim

type phase_result = {
  breakdown : Breakdown.t;
  accs : Vec3.t array;
  dpa_stats : Dpa.Dpa_stats.t option;
  cache_stats : Dpa_baselines.Caching.stats option;
}

let force_phase ?work ~engine ~tree ~bodies ~params variant =
  let n = Array.length bodies in
  (* Flat (x, y, z)-interleaved accumulators keep the interaction loop
     allocation-free; the Vec3 array the callers consume is materialized
     once, at this edge. *)
  let accs = Array.make (3 * n) 0. in
  let items (type c) (module A : Dpa.Access.S with type ctx = c) =
    let module F = Bh_force.Make (A) in
    F.items ?work ~params ~tree ~bodies ~accs
  in
  let breakdown, stats =
    Dpa_baselines.Variant.run_phase variant ~label:"bh-force" ~engine
      ~heaps:tree.Bh_global.heaps { items }
  in
  {
    breakdown;
    accs =
      Array.init n (fun i ->
          Vec3.make accs.(3 * i) accs.((3 * i) + 1) accs.((3 * i) + 2));
    dpa_stats = Dpa_baselines.Variant.dpa_stats stats;
    cache_stats = Dpa_baselines.Variant.cache_stats stats;
  }

type sim_result = {
  total : Breakdown.t;
  steps : Breakdown.t list;
  bodies : Body.t array;
  last : phase_result;
  seq_counts : Bh_seq.counts;
}

let sequential_ns ~(params : Bh_force.params) (c : Bh_seq.counts) =
  (c.Bh_seq.cell_visits * params.Bh_force.visit_ns)
  + (c.Bh_seq.body_cell * params.Bh_force.body_cell_ns)
  + (c.Bh_seq.body_body * params.Bh_force.body_body_ns)

let simulate ?machine ?(params = Bh_force.default_params) ?(leaf_cap = 8)
    ?(dt = 0.025) ?(seed = 17) ?(partition = `Block) ?(repartition = false)
    ~nnodes ~nbodies ~nsteps variant =
  if nsteps <= 0 then invalid_arg "Bh_run.simulate: nsteps must be positive";
  let machine =
    match machine with Some m -> m | None -> Machine.t3d ~nodes:nnodes
  in
  let engine = Engine.create machine in
  let bodies = Plummer.generate ~n:nbodies ~seed in
  let steps = ref [] in
  let last = ref None in
  let seq_counts = ref Bh_seq.zero_counts in
  (* Morton repartitioning: record the simulated ns each body's traversal
     charges, and cut the next step's ownership along Morton order by that
     measured work instead of this step's estimate. The weights are a pure
     function of the (deterministically rebuilt) tree, so the schedule —
     and with grid-exact force sums, every result bit — replays under any
     partition or fault history. *)
  let work = if repartition then Some (Array.make nbodies 0) else None in
  let prev_work = ref None in
  for step = 1 to nsteps do
    let octree = Octree.build ~leaf_cap bodies in
    if step = 1 then begin
      (* Counting traversal for the speedup denominator; accelerations are
         recomputed by the distributed phase below. *)
      let counts = Bh_seq.compute_forces ~theta:params.Bh_force.theta
          ~eps:params.Bh_force.eps octree
      in
      seq_counts := counts
    end;
    let weights =
      match !prev_work with
      | Some w -> Some w  (* measured, from the previous step's phase *)
      | None -> (
        match partition with
        | `Block -> None
        | `Costzones ->
          Some (Bh_seq.per_body_work ~theta:params.Bh_force.theta octree))
    in
    (match work with
    | Some w -> Array.fill w 0 (Array.length w) 0
    | None -> ());
    let tree = Bh_global.distribute ?weights octree ~nnodes in
    let result = force_phase ?work ~engine ~tree ~bodies ~params variant in
    (match work with
    | Some w -> prev_work := Some (Array.copy w)
    | None -> ());
    steps := result.breakdown :: !steps;
    last := Some result;
    Array.iteri (fun bid acc -> bodies.(bid).Body.acc <- acc) result.accs;
    Body.advance bodies ~dt
  done;
  let steps = List.rev !steps in
  let total =
    List.fold_left Breakdown.add (Breakdown.zero ~procs:nnodes) steps
  in
  let last = Option.get !last in
  { total; steps; bodies; last; seq_counts = !seq_counts }
