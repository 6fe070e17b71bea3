let compute_forces ?(eps = 0.05) bodies =
  Array.iter
    (fun b ->
      let acc = ref Vec3.zero in
      Array.iter
        (fun s ->
          if s.Body.id <> b.Body.id then
            acc :=
              Vec3.add !acc
                (Kernels.accel ~eps ~pos:b.Body.pos ~src_pos:s.Body.pos
                   ~src_mass:s.Body.mass))
        bodies;
      b.Body.acc <- !acc)
    bodies
