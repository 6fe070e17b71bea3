(** A set-associative LRU data-cache model (object granularity).

    Used to study the cache-locality side of DPA (§6 of the paper connects
    pointer-aligned scheduling to the cache-reordering work of Philbin et
    al.): feed it the object-access trace of a traversal order and read off
    the miss rate. *)

type t

val create : ?assoc:int -> lines:int -> unit -> t
(** [lines] total cache lines (rounded up to a multiple of [assoc]);
    [assoc] defaults to 4-way. *)

val access : t -> int -> bool
(** [access t key] touches the object [key]; [true] on hit. *)

val hits : t -> int
val misses : t -> int
val miss_rate : t -> float
