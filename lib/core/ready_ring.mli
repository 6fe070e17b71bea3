(** Flat circular buffer of ready work: parallel (pointer, continuation,
    chain cursor) arrays, FIFO like the queue it replaces, but a push or
    pop writes pre-sized slots instead of allocating cells — the
    scheduler's per-access dispatch path stays allocation-free.

    An entry is one of two kinds:
    - a {e single} entry ({!push}): one ready thread, its continuation
      stored here and {!head_cell} [= -1] — a local read or an alignment
      buffer hit;
    - a {e chain} entry ({!push_chain}): every thread a reply woke for one
      token, left in {!Pointer_map}'s waiter cells and named by the cursor
      {!head_cell}, the first undispatched cell. The scheduler walks the
      chain in registration order ({!Pointer_map.waiter},
      {!Pointer_map.pop_waiter}) and moves the cursor with
      {!set_head_cell}; a chain cut by the poll quantum resumes from it.

    {!length} counts entries, not threads. *)

type 'k t

val create : dummy:'k -> 'k t
(** [dummy] fills continuation slots that were never written. A popped
    entry's continuation is not cleared: the ring lives for one phase, so
    it is retained only until its slot is reused or the phase ends. *)

val length : 'k t -> int
val is_empty : 'k t -> bool

val push : 'k t -> Dpa_heap.Gptr.t -> 'k -> unit
(** Append a single entry. *)

val push_chain : 'k t -> Dpa_heap.Gptr.t -> int -> unit
(** Append a chain entry: the woken pointer and the first waiter cell of
    its chain in the {!Pointer_map} that pushed it. *)

val head_ptr : 'k t -> Dpa_heap.Gptr.t
(** Pointer of the oldest entry. Raises [Invalid_argument] when empty, as
    do the other [head] accessors, {!set_head_cell} and {!drop}. *)

val head_k : 'k t -> 'k
(** Continuation of the oldest entry when it is a single entry. For a
    chain entry it is whatever closure the slot last held: check
    {!head_cell} first. *)

val head_cell : 'k t -> int
(** Chain cursor of the oldest entry, or [-1] for a single entry. *)

val set_head_cell : 'k t -> int -> unit
(** Advance the oldest entry's chain cursor. *)

val drop : 'k t -> unit
(** Discard the oldest entry (pop = the [head] accessors then [drop] —
    split so no tuple is built). *)
