(** Sequential FMM reference, in the per-leaf form the distributed phase
    uses: for every leaf, the far field is the sum over its ancestors'
    V-list cells of an M2L translation to the leaf center, evaluated at each
    particle; the near field is direct summation over the U list. This
    covers each source exactly once (tested), and mirrors the distributed
    traversal interaction-for-interaction. *)

type result = {
  potential : float array;  (** Re Phi per particle *)
  field : Complex.t array;  (** Phi' per particle *)
}

type counts = {
  m2l : int;  (** M2L translations *)
  p2p : int;  (** near-field pairs *)
  evals : int;  (** local-expansion evaluations *)
}

val upward : p:int -> Quadtree.t -> Expansion.t array
(** Multipole expansion of every cell (P2M at leaves, M2M up to level 2;
    levels 0 and 1 are zero — their V lists are empty). *)

val compute : p:int -> Quadtree.t -> result * counts

val zero_counts : counts
