type result = { potential : float array; field : Complex.t array }
type counts = { m2l : int; p2p : int; evals : int }

let zero_counts = { m2l = 0; p2p = 0; evals = 0 }

let upward ~p tree =
  let parts = Quadtree.particles tree in
  let n = Quadtree.ncells tree in
  let mp = Array.make n [||] in
  let depth = Quadtree.depth tree in
  (* P2M at the leaves. *)
  Array.iter
    (fun leaf ->
      let charges =
        Array.to_list (Quadtree.leaf_particles tree leaf)
        |> List.map (fun pid ->
               (parts.(pid).Particle2d.q, parts.(pid).Particle2d.z))
      in
      mp.(leaf) <- Expansion.p2m ~p ~center:(Quadtree.center tree leaf) charges)
    (Quadtree.leaves_in_morton_order tree);
  (* M2M up to level 2. *)
  for level = depth - 1 downto 2 do
    let side = 1 lsl level in
    for iy = 0 to side - 1 do
      for ix = 0 to side - 1 do
        let ci = Quadtree.index tree ~level ~ix ~iy in
        let acc = Expansion.zero ~p in
        for cy = 0 to 1 do
          for cx = 0 to 1 do
            let child =
              Quadtree.index tree ~level:(level + 1) ~ix:((2 * ix) + cx)
                ~iy:((2 * iy) + cy)
            in
            Expansion.add_inplace acc
              (Expansion.m2m mp.(child)
                 ~from_center:(Quadtree.center tree child)
                 ~to_center:(Quadtree.center tree ci))
          done
        done;
        mp.(ci) <- acc
      done
    done
  done;
  (* Levels 0 and 1 are never consulted; keep them as zero expansions. *)
  for i = 0 to n - 1 do
    if Array.length mp.(i) = 0 then mp.(i) <- Expansion.zero ~p
  done;
  mp

let compute ~p tree =
  let parts = Quadtree.particles tree in
  let n = Array.length parts in
  let mp = upward ~p tree in
  let potential = Array.make n 0. and field = Array.make n Complex.zero in
  let counts = ref zero_counts in
  let depth = Quadtree.depth tree in
  Array.iter
    (fun leaf ->
      let mine = Quadtree.leaf_particles tree leaf in
      if Array.length mine > 0 then begin
        let lc = Quadtree.center tree leaf in
        (* Far field: ancestors' V lists, one M2L per interaction cell,
           evaluated at each of this leaf's particles. *)
        for level = 2 to depth do
          let a = Quadtree.ancestor tree leaf ~level in
          Array.iter
            (fun v ->
              let local =
                Expansion.m2l mp.(v)
                  ~from_center:(Quadtree.center tree v)
                  ~to_center:lc
              in
              counts := { !counts with m2l = !counts.m2l + 1 };
              Array.iter
                (fun pid ->
                  let phi, dphi =
                    Expansion.eval_local local ~center:lc
                      parts.(pid).Particle2d.z
                  in
                  counts := { !counts with evals = !counts.evals + 1 };
                  potential.(pid) <- potential.(pid) +. phi.Complex.re;
                  field.(pid) <- Complex.add field.(pid) dphi)
                mine)
            (Quadtree.v_list tree a)
        done;
        (* Near field: direct over the U list (includes this leaf; the
           direct kernel skips self-pairs by distance). *)
        Array.iter
          (fun u ->
            let srcs =
              Array.to_list (Quadtree.leaf_particles tree u)
              |> List.map (fun pid ->
                     (parts.(pid).Particle2d.q, parts.(pid).Particle2d.z))
            in
            Array.iter
              (fun pid ->
                let phi, dphi = Expansion.direct srcs parts.(pid).Particle2d.z in
                counts :=
                  { !counts with p2p = !counts.p2p + List.length srcs };
                potential.(pid) <- potential.(pid) +. phi.Complex.re;
                field.(pid) <- Complex.add field.(pid) dphi)
              mine)
          (Quadtree.u_list tree leaf)
      end)
    (Quadtree.leaves_in_morton_order tree);
  ({ potential; field }, !counts)
