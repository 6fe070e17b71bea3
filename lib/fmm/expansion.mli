(** Multipole and local expansions for the 2-D logarithmic kernel
    (Greengard & Rokhlin). The potential of charges [q_i] at [z_i] is
    [Phi(z) = sum_i q_i log(z - z_i)]; physical potential is [Re Phi] and
    the field (gradient of the potential as a complex number) is
    [conj(Phi'(z))].

    A multipole expansion about [c] is the coefficient vector [a]:
    [Phi(z) = a_0 log(z-c) + sum_{k>=1} a_k / (z-c)^k].
    A local expansion about [c] is [Phi(z) = sum_{l>=0} b_l (z-c)^l].
    All vectors have [p+1] complex entries (order [p]). *)

type t = Complex.t array

val zero : p:int -> t
val add_inplace : t -> t -> unit

val p2m : p:int -> center:Complex.t -> (float * Complex.t) list -> t
(** Multipole of point charges [(q, z)] about [center]. *)

val m2m : t -> from_center:Complex.t -> to_center:Complex.t -> t
(** Shift a multipole expansion to a new center (child to parent). *)

val m2l : t -> from_center:Complex.t -> to_center:Complex.t -> t
(** Convert a multipole about a well-separated center into a local
    expansion. *)

val eval_multipole : t -> center:Complex.t -> Complex.t -> Complex.t * Complex.t
(** [(Phi(z), Phi'(z))] of a multipole expansion, for [z] outside the
    convergence disk. *)

val eval_local : t -> center:Complex.t -> Complex.t -> Complex.t * Complex.t
(** [(Phi(z), Phi'(z))] of a local expansion. *)

val direct : (float * Complex.t) list -> Complex.t -> Complex.t * Complex.t
(** Direct [(Phi, Phi')] of point charges at [z], skipping any source closer
    than 1e-12 (self-interaction). *)

val binomial : int -> int -> float
(** Exact binomial coefficients (cached; arguments up to 128). *)
