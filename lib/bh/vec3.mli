(** Three-dimensional vectors for the N-body codes. *)

type t = { x : float; y : float; z : float }

val zero : t
val make : float -> float -> float -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val norm2 : t -> float
val norm : t -> float
val dist : t -> t -> float
val axpy : float -> t -> t -> t
(** [axpy a x y] is [a*x + y]. *)

val approx_equal : ?tol:float -> t -> t -> bool
