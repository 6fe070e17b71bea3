(** Distribution of the FMM data into the global heap.

    Leaves are block-partitioned across nodes in Morton order; a node owns
    the particles of its leaves. Every cell of level >= 2 contributes one
    multipole object (2(p+1) floats, re/im interleaved) owned by the owner
    of its first descendant leaf; every leaf additionally contributes a
    particle-list object ([n; then id,x,y,q per particle]) for near-field
    interactions. *)

open Dpa_heap

type t = {
  heaps : Heap.cluster;
  tree : Quadtree.t;
  mp_ptrs : Gptr.t array;  (** cell index -> multipole object; nil below level 2 *)
  leaf_ptrs : Gptr.t array;  (** cell index -> particle-list object (leaves) *)
  owner_leaves : int array array;  (** node -> owned leaf cell indices *)
}

val owner_of_cell : Quadtree.t -> nnodes:int -> int -> int
val distribute : p:int -> Quadtree.t -> nnodes:int -> t

val distribute_empty : p:int -> Quadtree.t -> nnodes:int -> t
(** Same layout and ownership as {!distribute}, but multipole objects are
    zero-filled: the upward pass ({!Fmm_upward}) builds them in parallel. *)

module View : sig
  val expansion : Heap.cluster -> Heap.view -> Expansion.t
  val nparticles : Heap.cluster -> Heap.view -> int
  val particle : Heap.cluster -> Heap.view -> int -> int * float * Complex.t
  (** [(id, q, z)] of the k-th inline particle. *)
end
