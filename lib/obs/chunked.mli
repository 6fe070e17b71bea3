(** Chunked int columns: a growable sequence stored as fixed-size chunks.

    Elements are addressed by their absolute position, [0] for the first
    ever pushed. Growth takes a chunk from the column's pool (or allocates
    one) and copies nothing; {!release} returns the oldest chunks to the
    pool once every element in them is dead, so a column used as a window
    over a stream holds only the chunks its live range touches. Chunks are
    ordinary OCaml int arrays, so the GC and the allocation counters see
    all of the storage. *)

type t

val chunk_size : int
(** Elements per chunk (4096). *)

val create : unit -> t
(** An empty column. No chunk is allocated until the first {!push}. *)

val length : t -> int
(** Elements ever pushed (the next push's position). *)

val first : t -> int
(** Position of the oldest element still stored: a multiple of
    {!chunk_size}, advanced by {!release}. *)

val push : t -> int -> unit

val get : t -> int -> int
(** [get c i] for [first c <= i < length c]. An out-of-range position
    raises [Invalid_argument] naming [i] and the live range, from
    [first c] up to [length c] (excluded). *)

val release : t -> int -> unit
(** [release c upto] returns to the pool every chunk whose elements all
    lie below [upto]. *)

val clear : t -> unit
(** Release every chunk and restart positions at [0]. *)
