open Dpa_heap

type t = {
  heaps : Heap.cluster;
  root : Gptr.t;
  owner_bodies : int array array;
}

let kind_leaf = 0.
let kind_internal = 1.

let distribute ?weights tree ~nnodes =
  let bodies = Octree.bodies tree in
  let order = Octree.dfs_body_order tree in
  let nbodies = Array.length order in
  let rank = Array.make nbodies 0 in
  Array.iteri (fun r bid -> rank.(bid) <- r) order;
  let ranges =
    match weights with
    | None ->
      Array.init nnodes (Distribution.block_range ~nitems:nbodies ~nnodes)
    | Some w ->
      if Array.length w <> nbodies then
        invalid_arg "Bh_global.distribute: weights length mismatch";
      (* Weights arrive indexed by body id; the partition walks tree order. *)
      Distribution.weighted_ranges
        ~weights:(Array.map (fun bid -> w.(bid)) order)
        ~nnodes
  in
  let rank_owner = Distribution.owner_of_ranges ranges in
  let owner_bodies =
    Array.map
      (fun (first, count) -> Array.init count (fun i -> order.(first + i)))
      ranges
  in
  let heaps = Heap.cluster ~nnodes in
  let cell_ptrs = Array.make (Octree.ncells tree) Gptr.nil in
  (* First rank of any body in each subtree determines the owner. *)
  let first_rank = Array.make (Octree.ncells tree) max_int in
  Octree.iter_cells_postorder tree (fun ci ->
      match Octree.kind tree ci with
      | Octree.Leaf ids ->
        Array.iter (fun bid -> first_rank.(ci) <- min first_rank.(ci) rank.(bid)) ids
      | Octree.Internal children ->
        Array.iter
          (fun ch -> if ch >= 0 then first_rank.(ci) <- min first_rank.(ci) first_rank.(ch))
          children);
  (* Cells are written straight into the owner's pools ([alloc_raw] +
     in-place stores): no staging arrays, so the per-step rebuild at
     million-body scale allocates nothing per cell beyond pool growth. *)
  Octree.iter_cells_postorder tree (fun ci ->
      let owner =
        if first_rank.(ci) = max_int then 0 else rank_owner.(first_rank.(ci))
      in
      let h = heaps.(owner) in
      let com = Octree.com tree ci in
      let p =
        match Octree.kind tree ci with
        | Octree.Leaf ids ->
          let n = Array.length ids in
          let p = Heap.alloc_raw h ~nfloats:(7 + (5 * n)) ~nptrs:0 in
          Heap.set_float h p 0 kind_leaf;
          Heap.set_float h p 6 (float_of_int n);
          Array.iteri
            (fun k bid ->
              let b = bodies.(bid) in
              let base = 7 + (5 * k) in
              Heap.set_float h p base (float_of_int bid);
              Heap.set_float h p (base + 1) b.Body.pos.Vec3.x;
              Heap.set_float h p (base + 2) b.Body.pos.Vec3.y;
              Heap.set_float h p (base + 3) b.Body.pos.Vec3.z;
              Heap.set_float h p (base + 4) b.Body.mass)
            ids;
          p
        | Octree.Internal children ->
          let p = Heap.alloc_raw h ~nfloats:7 ~nptrs:(Array.length children) in
          Heap.set_float h p 0 kind_internal;
          Heap.set_float h p 6 (float_of_int (Octree.nbodies tree ci));
          Array.iteri
            (fun i ch ->
              if ch >= 0 then Heap.set_ptr h p i cell_ptrs.(ch))
            children;
          p
      in
      Heap.set_float h p 1 com.Vec3.x;
      Heap.set_float h p 2 com.Vec3.y;
      Heap.set_float h p 3 com.Vec3.z;
      Heap.set_float h p 4 (Octree.mass tree ci);
      Heap.set_float h p 5 (Octree.half tree ci);
      cell_ptrs.(ci) <- p);
  {
    heaps;
    root = cell_ptrs.(Octree.root tree);
    owner_bodies;
  }
