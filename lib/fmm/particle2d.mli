(** Charged particles in the plane for the 2-D fast multipole method
    (the SPLASH-2 FMM is the 2-D adaptive Greengard–Rokhlin algorithm). *)

type t = { id : int; q : float; z : Complex.t }

val uniform : n:int -> seed:int -> t array
(** [n] particles uniform in the unit square, charges uniform in [\[0.5, 1.5)]
    scaled so the total charge is 1. Deterministic given [seed]. *)

val clustered : n:int -> seed:int -> clusters:int -> t array
(** A non-uniform input: Gaussian clusters in the unit square (positions
    clamped to the square), equal total charge. Exercises load imbalance. *)
