open Dpa_heap

type t = {
  heaps : Heap.cluster;
  tree : Aquadtree.t;
  p : int;
  root : Gptr.t;
  owner_leaves : int array array;
}

let kind_leaf = 0.
let kind_internal = 1.

let distribute ~p tree ~nnodes =
  let parts = Aquadtree.particles tree in
  let leaves = Aquadtree.leaves_in_dfs_order tree in
  (* Equal-particle partition of the DFS leaf order. *)
  let ranges =
    Distribution.weighted_ranges
      ~weights:(Array.map (fun leaf -> max 1 (Aquadtree.nparticles tree leaf)) leaves)
      ~nnodes
  in
  let leaf_rank_owner = Distribution.owner_of_ranges ranges in
  let owner_leaves =
    Array.map
      (fun (first, count) -> Array.init count (fun i -> leaves.(first + i)))
      ranges
  in
  let leaf_rank = Hashtbl.create (Array.length leaves) in
  Array.iteri (fun r leaf -> Hashtbl.replace leaf_rank leaf r) leaves;
  let mp = Afmm_seq.upward ~p tree in
  let heaps = Heap.cluster ~nnodes in
  let ncells = Aquadtree.ncells tree in
  let cell_ptrs = Array.make ncells Gptr.nil in
  let first_leaf_rank = Array.make ncells max_int in
  Aquadtree.iter_cells_postorder tree (fun ci ->
      match Aquadtree.kind tree ci with
      | Aquadtree.Leaf _ -> first_leaf_rank.(ci) <- Hashtbl.find leaf_rank ci
      | Aquadtree.Internal children ->
        Array.iter
          (fun ch ->
            if ch >= 0 then
              first_leaf_rank.(ci) <- min first_leaf_rank.(ci) first_leaf_rank.(ch))
          children);
  Aquadtree.iter_cells_postorder tree (fun ci ->
      let owner =
        if first_leaf_rank.(ci) = max_int then 0
        else leaf_rank_owner.(first_leaf_rank.(ci))
      in
      let c = Aquadtree.center tree ci in
      let e = mp.(ci) in
      let head = 4 + (2 * (p + 1)) in
      let floats, ptrs =
        match Aquadtree.kind tree ci with
        | Aquadtree.Leaf ids ->
          let n = Array.length ids in
          let fl = Array.make (head + 1 + (4 * n)) 0. in
          fl.(0) <- kind_leaf;
          fl.(head) <- float_of_int n;
          Array.iteri
            (fun k pid ->
              let pt = parts.(pid) in
              let base = head + 1 + (4 * k) in
              fl.(base) <- float_of_int pid;
              fl.(base + 1) <- pt.Particle2d.q;
              fl.(base + 2) <- pt.Particle2d.z.Complex.re;
              fl.(base + 3) <- pt.Particle2d.z.Complex.im)
            ids;
          (fl, [||])
        | Aquadtree.Internal children ->
          let fl = Array.make head 0. in
          fl.(0) <- kind_internal;
          ( fl,
            Array.map
              (fun ch -> if ch >= 0 then cell_ptrs.(ch) else Gptr.nil)
              children )
      in
      floats.(1) <- c.Complex.re;
      floats.(2) <- c.Complex.im;
      floats.(3) <- Aquadtree.width tree ci;
      Array.iteri
        (fun i z ->
          floats.(4 + (2 * i)) <- z.Complex.re;
          floats.(4 + (2 * i) + 1) <- z.Complex.im)
        e;
      cell_ptrs.(ci) <- Heap.alloc heaps.(owner) ~floats ~ptrs);
  {
    heaps;
    tree;
    p;
    root = cell_ptrs.(Aquadtree.root tree);
    owner_leaves;
  }

module View = struct
  let is_leaf h (v : Heap.view) = Heap.view_float h v 0 = kind_leaf

  let center h (v : Heap.view) =
    { Complex.re = Heap.view_float h v 1; im = Heap.view_float h v 2 }

  let width h (v : Heap.view) = Heap.view_float h v 3

  let expansion ~p h (v : Heap.view) =
    Array.init (p + 1) (fun i ->
        {
          Complex.re = Heap.view_float h v (4 + (2 * i));
          im = Heap.view_float h v (4 + (2 * i) + 1);
        })

  let head ~p = 4 + (2 * (p + 1))

  let nparticles ~p h (v : Heap.view) =
    int_of_float (Heap.view_float h v (head ~p))

  let particle ~p h (v : Heap.view) k =
    let base = head ~p + 1 + (4 * k) in
    ( int_of_float (Heap.view_float h v base),
      Heap.view_float h v (base + 1),
      {
        Complex.re = Heap.view_float h v (base + 2);
        im = Heap.view_float h v (base + 3);
      } )

  let children h (v : Heap.view) =
    Array.init (Heap.view_nptrs h v) (fun i -> Heap.view_ptr h v i)

  let well_separated ~leaf_center ~leaf_width h (v : Heap.view) =
    let c = center h v and w = width h v in
    let gap_x =
      Float.abs (leaf_center.Complex.re -. c.Complex.re)
      -. ((leaf_width +. w) /. 2.)
    in
    let gap_y =
      Float.abs (leaf_center.Complex.im -. c.Complex.im)
      -. ((leaf_width +. w) /. 2.)
    in
    Float.max gap_x gap_y >= Float.max leaf_width w -. 1e-12
end
