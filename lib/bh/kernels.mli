(** Shared force arithmetic. Both the sequential reference and every
    runtime-driven traversal use exactly these functions, so cross-runtime
    comparisons are limited only by floating-point reassociation. *)

val accel :
  eps:float -> pos:Vec3.t -> src_pos:Vec3.t -> src_mass:float -> Vec3.t
(** Plummer-softened gravitational acceleration at [pos] due to a point mass
    [src_mass] at [src_pos] (G = 1): [m * r / (|r|^2 + eps^2)^{3/2}]. Zero
    when the positions coincide. *)

val opened : theta:float -> pos:Vec3.t -> com:Vec3.t -> half:float -> bool
(** The Barnes-Hut multipole acceptance test: [true] when the cell must be
    opened, i.e. when [side / dist(pos, com) >= theta]. *)
