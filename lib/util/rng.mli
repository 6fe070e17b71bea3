(** Deterministic pseudo-random number generator (splitmix64).

    Every experiment in this repository must be reproducible bit-for-bit, so
    all stochastic inputs (particle positions, masses, velocities) are drawn
    from this generator rather than [Stdlib.Random]. A draw allocates
    nothing beyond its boxed result ({!int64}, {!uniform}, {!gaussian});
    {!int} and {!chance} allocate nothing at all. *)

type t

val create : seed:int -> t
(** [create ~seed] makes an independent stream. Equal seeds give equal
    streams. *)

val split : t -> t
(** [split t] derives a new independent stream from [t], advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val chance : t -> float -> bool
(** [chance t p] is [uniform t < p], drawn from the same stream, without
    boxing the float: the fault plan's per-message coin. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller). *)
