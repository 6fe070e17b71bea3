(** Priority queue of timestamped events.

    Ties are broken by insertion order (FIFO), which makes the whole
    simulation deterministic: two events posted for the same instant are
    processed in the order they were posted.

    An index heap: the heap orders [(time, insertion number, slot)]
    triples in three int columns, and each entry's tag and payload sit in
    a slot of two further columns, written once when the entry is added.
    Reordering the heap therefore moves only ints, never a payload.
    Adding and removing an entry allocates nothing once the columns have
    grown to the queue's depth; a removed entry's slot is reused by a
    later add, and its payload is not retained by the queue. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> time:int -> 'a -> unit
(** [add t ~time x] inserts [x] at timestamp [time] (nanoseconds).
    Raises [Invalid_argument] naming [time] when it is negative. *)

val add_tagged : 'a t -> time:int -> tag:int -> 'a -> unit
(** Like {!add}, with an integer [tag] stored beside the payload and read
    back by {!min_tag} — how the engine carries an event's node and flags
    without a per-event record. {!add} stores tag [0]. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the event with the smallest [(time, insertion-order)]
    key, or [None] when empty. *)

(** {2 Allocation-free pop}

    [min_time]/[min_tag]/[min_payload] then [drop_min] is {!pop} split so
    that no option or tuple is built. Each raises [Invalid_argument] when
    the queue is empty. *)

val min_time : 'a t -> int
val min_tag : 'a t -> int
val min_payload : 'a t -> 'a

val drop_min : 'a t -> unit
(** Remove the entry the [min_*] accessors describe. *)
