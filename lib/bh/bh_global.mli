(** Distribution of the octree into the global heap.

    Bodies are ordered depth-first (tree order, which is also Morton order
    for an octree) and block-partitioned across nodes; each cell is owned by
    the owner of the first body of its subtree, so subtrees land near their
    bodies. Each cell becomes one heap object:

    floats: [kind; com.x; com.y; com.z; mass; half; nbodies;
             then for leaves, 5 floats per body: id, x, y, z, mass]
    ptrs:   8 child pointers for internal cells (nil where absent). *)

open Dpa_heap

type t = {
  heaps : Heap.cluster;
  root : Gptr.t;
  owner_bodies : int array array;  (** node -> owned body ids, tree order *)
}

val kind_leaf : float

val distribute : ?weights:int array -> Octree.t -> nnodes:int -> t
(** [weights] (indexed by body id) switches the partition from equal counts
    to equal total weight — the SPLASH-2 "costzones" scheme, using each
    body's previous-step work as its weight. *)
