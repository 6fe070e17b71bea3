(** Global pointers: the names of objects in the distributed heap.

    A global pointer is an (owner node, slot) pair packed into a single
    immediate integer, so pointers are unboxed wherever they are stored —
    flat pointer pools, scheduler rings, hashtable keys. It is the unit the
    DPA runtime labels threads with, maps in [M], and renames in the
    alignment buffer [D]. *)

type t = private int

val nil : t
val is_nil : t -> bool
val make : node:int -> slot:int -> t

val node : t -> int
(** Owner node id; [-1] for {!nil}. *)

val slot : t -> int
(** Slot on the owner node; [-1] for {!nil}. *)

val equal : t -> t -> bool

val hash : t -> int
val show : t -> string

val bytes : int
(** Serialized size of a pointer (8 bytes, as on the T3D). *)

module Tbl : Hashtbl.S with type key = t
