(** Sequential Barnes-Hut force computation: the reference implementation
    and the source of the interaction counts used to calibrate the machine
    model. *)

type counts = {
  cell_visits : int;  (** cells examined (opened or not) *)
  body_cell : int;  (** far-field body–cell interactions *)
  body_body : int;  (** near-field body–body interactions *)
}

val compute_forces : ?theta:float -> ?eps:float -> Octree.t -> counts
(** Fill [body.acc] for every body by traversing the tree. [theta] defaults
    to 1.0 (the SPLASH-2 timing setting), [eps] to 0.05. *)

val force_on : ?theta:float -> ?eps:float -> Octree.t -> Body.t -> Vec3.t
(** Acceleration on one body, without mutating it. *)

val zero_counts : counts

val per_body_work :
  ?theta:float ->
  ?visit_w:int ->
  ?body_cell_w:int ->
  ?body_body_w:int ->
  Octree.t ->
  int array
(** Per-body traversal work estimate (weighted interaction counts, no force
    arithmetic) — the weights the costzones partitioning uses. Default
    weights approximate the cost ratios of {!Bh_force.default_params}. *)

val visit_trace : ?theta:float -> Octree.t -> Body.t -> (int -> unit) -> unit
(** Feed the sequence of cell indices the body's traversal touches to the
    callback — the access trace used by the cache-locality study. *)
