let upward ~p tree =
  let parts = Aquadtree.particles tree in
  let mp = Array.make (Aquadtree.ncells tree) [||] in
  Aquadtree.iter_cells_postorder tree (fun ci ->
      match Aquadtree.kind tree ci with
      | Aquadtree.Leaf ids ->
        let charges =
          Array.to_list ids
          |> List.map (fun pid ->
                 (parts.(pid).Particle2d.q, parts.(pid).Particle2d.z))
        in
        mp.(ci) <- Expansion.p2m ~p ~center:(Aquadtree.center tree ci) charges
      | Aquadtree.Internal children ->
        let acc = Expansion.zero ~p in
        Array.iter
          (fun ch ->
            if ch >= 0 then
              Expansion.add_inplace acc
                (Expansion.m2m mp.(ch)
                   ~from_center:(Aquadtree.center tree ch)
                   ~to_center:(Aquadtree.center tree ci)))
          children;
        mp.(ci) <- acc);
  mp

let compute ~p tree =
  let parts = Aquadtree.particles tree in
  let n = Array.length parts in
  let mp = upward ~p tree in
  let potential = Array.make n 0. and field = Array.make n Complex.zero in
  let p2p = ref 0 in
  Array.iter
    (fun leaf ->
      match Aquadtree.kind tree leaf with
      | Aquadtree.Internal _ -> assert false
      | Aquadtree.Leaf mine when Array.length mine > 0 ->
        let lc = Aquadtree.center tree leaf in
        let rec walk ci =
          if Aquadtree.well_separated tree ~leaf ci then begin
            let local =
              Expansion.m2l mp.(ci)
                ~from_center:(Aquadtree.center tree ci)
                ~to_center:lc
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
          else
            match Aquadtree.kind tree ci with
            | Aquadtree.Leaf ids ->
              let srcs =
                Array.to_list ids
                |> List.map (fun pid ->
                       (parts.(pid).Particle2d.q, parts.(pid).Particle2d.z))
              in
              p2p := !p2p + (Array.length ids * Array.length mine);
              Array.iter
                (fun pid ->
                  let phi, dphi =
                    Expansion.direct srcs parts.(pid).Particle2d.z
                  in
                  potential.(pid) <- potential.(pid) +. phi.Complex.re;
                  field.(pid) <- Complex.add field.(pid) dphi)
                mine
            | Aquadtree.Internal children ->
              Array.iter (fun ch -> if ch >= 0 then walk ch) children
        in
        walk (Aquadtree.root tree)
      | Aquadtree.Leaf _ -> ())
    (Aquadtree.leaves_in_dfs_order tree);
  ({ Fmm_seq.potential; field }, !p2p)
