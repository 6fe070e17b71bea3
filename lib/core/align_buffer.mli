(** The alignment buffer [D] of the paper: renamed local copies of remote
    objects, valid for the duration of one strip. Cleared at strip
    boundaries, so its peak size — reported in the statistics table — is
    bounded by the strip's working set.

    Views alias the owner's flat store ({!Dpa_heap.Heap.view}), so the
    buffer holds membership, not payload: a hit means the strip already
    fetched the object and the read needs no wire traffic. The set is an
    {!Index} keyed by the packed pointer, so a lookup, an insert and a
    clear allocate nothing once it has grown to the strip's working set. *)

type t

val create : unit -> t

val mem : t -> Dpa_heap.Gptr.t -> bool
(** Is the object's renamed copy live in this strip? *)

val add : t -> Dpa_heap.Gptr.t -> unit
val size : t -> int

val peak : t -> int
(** Largest size reached since creation (survives [clear]). *)

val clear : t -> unit
