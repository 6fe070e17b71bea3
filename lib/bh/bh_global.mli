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
  cell_ptrs : Gptr.t array;  (** octree cell index -> heap pointer *)
}

val kind_leaf : float

val distribute : ?weights:int array -> Octree.t -> nnodes:int -> t
(** [weights] (indexed by body id) switches the partition from equal counts
    to equal total weight — the SPLASH-2 "costzones" scheme, using each
    body's previous-step work as its weight. *)

(** Accessors over a cell object view, resolved through the cluster
    ({!Heap.view} is a handle, not a record). Convenience layer for
    reference code and tests; the force kernel reads the float pool
    directly ({!Heap.float_base}) to keep its inner loop
    allocation-free. *)
module View : sig
  val is_leaf : Heap.cluster -> Heap.view -> bool
  val com : Heap.cluster -> Heap.view -> Vec3.t
  val mass : Heap.cluster -> Heap.view -> float
  val half : Heap.cluster -> Heap.view -> float
  val nbodies : Heap.cluster -> Heap.view -> int

  val body : Heap.cluster -> Heap.view -> int -> int * Vec3.t * float
  (** [body heaps view k] is the [k]-th inline body: (id, position,
      mass). *)

  val children : Heap.cluster -> Heap.view -> Gptr.t array
end
