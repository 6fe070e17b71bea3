(** Open-addressed [int -> int] map over non-negative keys, shared by the
    pointer map [M] ([Dpa.Pointer_map]: token -> slot, pointer -> slot),
    the alignment buffer [D] ([Dpa.Align_buffer]: pointer membership) and
    the write side's custody tables and journals ([Dpa.Runtime]).
    Lookups, inserts and removals allocate nothing once the table has
    grown to its working set; the capacity doubles on demand and is kept
    across {!clear}. *)

type t

val create : log2:int -> t
(** An empty map with [2^log2] buckets. *)

val find : t -> int -> int
(** The value bound to a key, or [-1] when it is absent. *)

val mem : t -> int -> bool

val add : t -> int -> int -> unit
(** Bind a key. A key already present is rebound in place and leaves
    {!size} unchanged. Keys must be non-negative. *)

val remove : t -> int -> unit
(** Unbind a key; a no-op when it is absent. *)

val fold : t -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** Fold over every binding, in unspecified order. *)

val size : t -> int
(** Keys currently bound. *)

val clear : t -> unit
