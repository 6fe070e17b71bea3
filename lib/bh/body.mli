(** A point mass. Positions and velocities evolve across time steps; the
    acceleration field is (re)filled by each force-computation phase. *)

type t = {
  id : int;
  mass : float;
  mutable pos : Vec3.t;
  mutable vel : Vec3.t;
  mutable acc : Vec3.t;
}

val make : id:int -> mass:float -> pos:Vec3.t -> vel:Vec3.t -> t

val advance : t array -> dt:float -> unit
(** Leapfrog step using the accelerations currently stored in [acc]. *)

val total_momentum : t array -> Vec3.t
