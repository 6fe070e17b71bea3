(** Buffer for remote accumulations (reductions) — the write-side dual of
    the request aggregator. Updates destined for the same node are batched
    into one message; with [combine] on, updates to the same (pointer,
    field) slot within the buffering window are summed locally before
    anything is sent — the reduction optimization the paper lists as an
    extension enabled by more precise aliasing.

    Each destination's bucket is two flat columns, created on the
    destination's first {!add}: the entries' targets as packed (pointer,
    field) {!key}s, and their values. An {!Dpa_util.Index} maps each key
    to the row holding that target's latest entry. Adding and flushing
    allocate nothing once a bucket has grown to its largest batch. *)

open Dpa_heap

type t

type batch
(** A flushed batch: a read-only view of one destination's entries, in
    the order they were first added. It is valid only while the flush
    callback runs. *)

val batch_length : batch -> int

val batch_key : batch -> int -> int
(** [batch_key b i] is the target {!key} of entry [i], from [0]. Like
    {!batch_value}, raises [Invalid_argument] outside
    [0 .. batch_length b - 1], and on every index once the flush callback
    has returned. *)

val batch_value : batch -> int -> float

val blit_batch : batch -> keys:int array -> vals:float array -> pos:int -> unit
(** Copy every entry of the batch into the two columns from [pos] on. *)

(** {2 Targets}

    An update's target, a (pointer, field) pair, packed into one
    non-negative int. *)

val key : Gptr.t -> idx:int -> int
(** Raises [Invalid_argument] unless [0 <= idx < 1024] and the pointer is
    not nil and its node is below 4096. *)

val key_ptr : int -> Gptr.t
val key_node : int -> int
val key_idx : int -> int

val create :
  ?hold:(int -> bool) ->
  ndest:int ->
  combine:bool ->
  max_batch:int ->
  flush:(dst:int -> batch -> unit) ->
  unit ->
  t
(** [hold dst] (default: never) marks destinations whose buckets are
    exempt from the eager [max_batch] flush and from {!flush_if}: their
    entries keep combining across strip boundaries until an explicit
    {!flush_all}. This is the whole-phase merge window of routed
    aggregation — with [combine] on, a held bucket is bounded by its
    number of unique (pointer, field) targets, not by the update count.

    [flush ~dst b] receives each batch. It must read [b] before it
    returns; it may not call {!add}, {!flush_all}, {!flush_if} or
    {!clear} on the same buffer (each raises [Invalid_argument] from
    inside a callback). *)

val add : t -> dst:int -> Gptr.t -> idx:int -> float -> unit
(** Without [combine], a second entry for a buffered target flushes an
    unheld bucket first, so no message repeats a target; a held bucket
    keeps both entries. *)

val flush_all : t -> unit
(** Flush every non-empty destination, in ascending destination order. *)

val flush_if : t -> (int -> bool) -> unit
(** Flush only the destinations the predicate selects — the strip-boundary
    flush, which must skip held (routed) destinations. *)

val clear : t -> int
(** Drop every buffered entry without flushing, returning how many entries
    were discarded — a crashing node losing its volatile relay buffer.
    Counters other than {!pending} are untouched. *)

val pending : t -> int
(** Buffered entries across destinations (after combining). *)

val sent_entries : t -> int
val combined : t -> int
(** Updates folded into an existing buffered entry. *)

val messages : t -> int
