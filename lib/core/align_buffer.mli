(** The alignment buffer [D] of the paper: renamed local copies of remote
    objects. The DPA runtime's [D] is unbounded and cleared at strip
    boundaries, so its peak size — reported in the statistics table — is
    bounded by the strip's working set. A {!bounded} [D] instead holds at
    most [capacity] objects and evicts the least recently used: the
    software cache of the caching baseline.

    Views alias the owner's flat store ({!Dpa_heap.Heap.view}), so the
    buffer holds membership, not payload: a hit means the object was
    already fetched and the read needs no wire traffic. The set is an
    {!Dpa_util.Index} keyed by the packed pointer and the recency list is three
    flat int columns, so a lookup, an insert, an eviction and a clear
    allocate nothing once the buffer has grown to its working set. *)

type t

val create : unit -> t
(** An unbounded buffer. *)

val bounded : capacity:int -> t
(** A buffer of at most [capacity] objects with least-recently-used
    eviction — the semantics of [Dpa_util.Lru]: {!find} and {!add} make an
    entry the most recent, adding to a full buffer first evicts the least
    recent, and at capacity 0 every add is an immediate eviction. Raises
    [Invalid_argument] on a negative capacity. *)

val mem : t -> Dpa_heap.Gptr.t -> bool
(** Is the object's renamed copy live? Leaves recency untouched. *)

val find : t -> Dpa_heap.Gptr.t -> bool
(** {!mem}, and on a hit in a bounded buffer make the entry the most
    recently used. *)

val add : t -> Dpa_heap.Gptr.t -> unit
val size : t -> int

val peak : t -> int
(** Largest size reached since creation (survives [clear]). *)

val evictions : t -> int
(** Entries evicted since creation ([0] when unbounded). *)

val clear : t -> unit
