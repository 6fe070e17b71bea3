(** Distribution of the adaptive FMM tree into the global heap.

    Each cell is one object carrying both the structure and the data the
    walk needs:

    floats: [kind; cx; cy; w; then 2(p+1) expansion floats;
             then for leaves: n and (id, q, x, y) per particle]
    ptrs:   4 children for internal cells.

    Leaves are partitioned across nodes in DFS order weighted by occupancy
    (equal particles per node); an internal cell lives with its first
    leaf. *)

open Dpa_heap

type t = {
  heaps : Heap.cluster;
  tree : Aquadtree.t;
  p : int;
  root : Gptr.t;
  owner_leaves : int array array;  (** node -> owned leaf cell indices *)
}

val distribute : p:int -> Aquadtree.t -> nnodes:int -> t

module View : sig
  val is_leaf : Heap.cluster -> Heap.view -> bool
  val center : Heap.cluster -> Heap.view -> Complex.t
  val expansion : p:int -> Heap.cluster -> Heap.view -> Expansion.t
  val nparticles : p:int -> Heap.cluster -> Heap.view -> int
  val particle : p:int -> Heap.cluster -> Heap.view -> int -> int * float * Complex.t
  val children : Heap.cluster -> Heap.view -> Gptr.t array

  val well_separated :
    leaf_center:Complex.t -> leaf_width:float -> Heap.cluster -> Heap.view -> bool
  (** The same acceptance test as {!Aquadtree.well_separated}, evaluated on
      a remote view. *)
end
