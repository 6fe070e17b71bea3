(** LRU cache, parameterized by a hashtable implementation for its keys.
    Used by the software-caching baseline runtime. A capacity of 0 gives a
    cache that never holds anything: every lookup misses, and every
    {!Make.add} counts as an immediate eviction (admit-then-evict), so the
    eviction counter stays consistent with the positive-capacity
    accounting ([evictions = insertions - entries retained]). *)

module Make (H : Hashtbl.S) : sig
  type 'a t

  val create : capacity:int -> 'a t
  val size : 'a t -> int

  val find : 'a t -> H.key -> 'a option
  (** [find t k] returns the cached value and marks it most-recently used. *)

  val add : 'a t -> H.key -> 'a -> unit
  (** Insert as most-recently used, evicting the least-recently-used entry
      if the cache is full. Replaces any existing binding for the key. *)

  val mem : 'a t -> H.key -> bool
  val evictions : 'a t -> int
  val clear : 'a t -> unit
end
