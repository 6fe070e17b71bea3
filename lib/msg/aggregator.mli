(** Per-destination request aggregation.

    Requests destined for the same node are buffered and sent as one
    message. A buffer flushes eagerly when it reaches [max_batch] entries
    (bounding per-message size and keeping the pipeline busy) and lazily via
    {!flush_all} when the scheduler runs out of local work. [max_batch = 1]
    degenerates to message pipelining without aggregation — one of the
    ablation points of the evaluation.

    Entries are ints (the runtime buffers request tokens), held in one
    growable int buffer per destination, created on first use: adding and
    flushing allocate nothing once a destination's buffer has grown to its
    largest batch. *)

type t

type batch
(** A flushed batch: a read-only view of one destination's buffer, in
    FIFO order. It is valid only while the flush callback runs. *)

val batch_length : batch -> int

val batch_get : batch -> int -> int
(** [batch_get b i] is the [i]th entry added, from [0]. Raises
    [Invalid_argument] outside [0 .. batch_length b - 1], and on every
    index once the flush callback has returned. *)

val create : ndest:int -> max_batch:int -> flush:(dst:int -> batch -> unit) -> t
(** [flush ~dst b] receives each batch. It must read [b] before it
    returns; it may not call {!add} or {!flush_all} (both raise
    [Invalid_argument] from inside a callback). *)

val add : t -> dst:int -> int -> unit

val flush_all : t -> unit
(** Flush every non-empty destination, in ascending destination order. *)

val clear : t -> int
(** Discard every buffered entry without flushing, returning how many were
    dropped. Used when the owning node crashes: unsent batches are volatile
    state, and the runtime re-issues what still matters from its durable
    pointer map at restart. *)

val pending : t -> int
(** Total buffered requests across destinations. *)

val pending_for : t -> dst:int -> int
(** Requests currently buffered for one destination. Raises
    [Invalid_argument] on an out-of-range destination. *)

val flushes : t -> int
(** Number of flush callbacks issued so far. *)

val max_batch_seen : t -> int
(** Largest batch handed to [flush] so far. *)

val set_observer : t -> (dst:int -> int -> unit) option -> unit
(** [set_observer t (Some f)] has every flush report its destination and
    batch size through [f ~dst n] just before the flush callback runs —
    the observability layer's batch-size accounting hook. [None] (the
    default) removes it; no per-add or per-flush cost remains. *)
