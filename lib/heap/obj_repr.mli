(** Representation of a heap object: a float payload plus global-pointer
    slots. This mirrors the "inline allocated" objects of the paper's ICC++
    codes — a Barnes-Hut cell, for instance, is one object holding its center
    of mass, mass, geometry, and eight child pointers. *)

type t = { floats : float array; ptrs : Gptr.t array }

val make : floats:float array -> ptrs:Gptr.t array -> t

val bytes : t -> int
(** Serialized size: header + 8 bytes per float + {!Gptr.bytes} per
    pointer. This drives simulated message sizes. *)

val header_bytes : int

val copy : t -> t
(** Deep copy, as performed when an object is renamed into the alignment
    buffer of a remote node. *)
