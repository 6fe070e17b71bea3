open Dpa_heap

type t = {
  heaps : Heap.cluster;
  tree : Quadtree.t;
  mp_ptrs : Gptr.t array;
  leaf_ptrs : Gptr.t array;
  owner_leaves : int array array;
}

let owner_of_leaf tree ~nnodes leaf =
  let d = Quadtree.depth tree in
  let ix, iy = Quadtree.coords_of tree leaf in
  let rank = Quadtree.morton ~ix ~iy in
  Distribution.block_owner ~nitems:(1 lsl (2 * d)) ~nnodes rank

let owner_of_cell tree ~nnodes ci =
  let d = Quadtree.depth tree in
  let l = Quadtree.level_of tree ci in
  let ix, iy = Quadtree.coords_of tree ci in
  let rank = Quadtree.morton ~ix ~iy lsl (2 * (d - l)) in
  Distribution.block_owner ~nitems:(1 lsl (2 * d)) ~nnodes rank

let expansion_floats e =
  let n = Array.length e in
  Array.init (2 * n) (fun i ->
      let c = e.(i / 2) in
      if i land 1 = 0 then c.Complex.re else c.Complex.im)

let distribute_with ~mp tree ~nnodes =
  let parts = Quadtree.particles tree in
  let heaps = Heap.cluster ~nnodes in
  let ncells = Quadtree.ncells tree in
  let mp_ptrs = Array.make ncells Gptr.nil in
  let leaf_ptrs = Array.make ncells Gptr.nil in
  for ci = 0 to ncells - 1 do
    if Quadtree.level_of tree ci >= 2 then begin
      let owner = owner_of_cell tree ~nnodes ci in
      mp_ptrs.(ci) <-
        Heap.alloc heaps.(owner) ~floats:(expansion_floats (mp ci)) ~ptrs:[||];
      if Quadtree.is_leaf tree ci then begin
        let ids = Quadtree.leaf_particles tree ci in
        let n = Array.length ids in
        let floats = Array.make (1 + (4 * n)) 0. in
        floats.(0) <- float_of_int n;
        Array.iteri
          (fun k pid ->
            let pt = parts.(pid) in
            let base = 1 + (4 * k) in
            floats.(base) <- float_of_int pid;
            floats.(base + 1) <- pt.Particle2d.q;
            floats.(base + 2) <- pt.Particle2d.z.Complex.re;
            floats.(base + 3) <- pt.Particle2d.z.Complex.im)
          ids;
        leaf_ptrs.(ci) <- Heap.alloc heaps.(owner) ~floats ~ptrs:[||]
      end
    end
  done;
  let owner_leaves = Array.make nnodes [] in
  let morton_leaves = Quadtree.leaves_in_morton_order tree in
  Array.iter
    (fun leaf ->
      let o = owner_of_leaf tree ~nnodes leaf in
      owner_leaves.(o) <- leaf :: owner_leaves.(o))
    morton_leaves;
  {
    heaps;
    tree;
    mp_ptrs;
    leaf_ptrs;
    owner_leaves = Array.map (fun l -> Array.of_list (List.rev l)) owner_leaves;
  }

let distribute ~p tree ~nnodes =
  let mp = Fmm_seq.upward ~p tree in
  distribute_with ~mp:(fun ci -> mp.(ci)) tree ~nnodes

let distribute_empty ~p tree ~nnodes =
  let zero = Expansion.zero ~p in
  distribute_with ~mp:(fun _ -> zero) tree ~nnodes

module View = struct
  let expansion h (v : Heap.view) =
    let n = Heap.view_nfloats h v / 2 in
    Array.init n (fun i ->
        {
          Complex.re = Heap.view_float h v (2 * i);
          im = Heap.view_float h v ((2 * i) + 1);
        })

  let nparticles h (v : Heap.view) = int_of_float (Heap.view_float h v 0)

  let particle h (v : Heap.view) k =
    let base = 1 + (4 * k) in
    ( int_of_float (Heap.view_float h v base),
      Heap.view_float h v (base + 1),
      {
        Complex.re = Heap.view_float h v (base + 2);
        im = Heap.view_float h v (base + 3);
      } )
end
