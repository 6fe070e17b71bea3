(** Sequential octree over a set of bodies: the Barnes-Hut pointer-based
    data structure. Cells are stored in a growable arena and named by index;
    {!Bh_global} turns the arena into distributed heap objects. *)

type t

type kind =
  | Leaf of int array  (** body ids, in insertion order *)
  | Internal of int array  (** 8 children indices, -1 where absent *)

val build : ?leaf_cap:int -> Body.t array -> t
(** Build the tree ([leaf_cap] defaults to 8 bodies per leaf). The root cube
    encloses all bodies. *)

val bodies : t -> Body.t array
val root : t -> int
val ncells : t -> int

val center : t -> int -> Vec3.t
(** Geometric center of the cell's cube. *)

val half : t -> int -> float
(** Half of the cube's side length. *)

val mass : t -> int -> float
val com : t -> int -> Vec3.t
(** Total mass and center of mass of the subtree. *)

val kind : t -> int -> kind
val nbodies : t -> int -> int

val depth : t -> int
(** Height of the tree. *)

val dfs_body_order : t -> int array
(** Body ids in depth-first leaf order — the locality-preserving order used
    to partition bodies across nodes (the Morton/tree order). *)

val iter_cells_postorder : t -> (int -> unit) -> unit
(** Visit every cell, children before parents. *)
