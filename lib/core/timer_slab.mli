(** One node's end-to-end timers, as slab data.

    Every timer a runtime arms above the transport lives here: the DPA
    runtime's request timer (one per request message), its update-batch
    timer and the custody notify a relay crash sends an origin, and the
    caching baseline's fetch timer. A slot holds the timer's kind, an id,
    a destination, the incarnation that armed it, its timeout, its
    deadline and, for a request timer, the request message. Each slot
    posts one action built with the slot, so arming allocates nothing; the
    slot is freed when its timer pops.

    Timers are [Soft] events ({!Dpa_sim.Engine.kind}), and fenced: one
    that pops after its node crashed since arming it never reaches the
    handler. *)

type kind =
  | Request  (** the request message's tokens may be unanswered *)
  | Update  (** [id] is an update batch awaiting its owner's ack *)
  | Custody  (** [id] is an update batch a crashed relay held *)
  | Fetch  (** [id] is the epoch of a blocking fetch *)

type t

type handler =
  kind -> id:int -> dst:int -> rto:int -> deadline:int -> int array -> unit
(** Runs when a live timer pops, with the columns its {!arm} wrote. The
    slot is already free, so the handler may arm again. *)

val create : Dpa_sim.Engine.t -> Dpa_sim.Node.t -> t
(** An empty slab whose timers pop on the node; its handler does nothing
    until {!set_handler}. *)

val set_handler : t -> handler -> unit

val arm :
  t -> ?at:int -> kind -> id:int -> dst:int -> rto:int -> int array -> unit
(** [arm t kind ~id ~dst ~rto msg] posts a timer that pops at [at]
    (default: the node clock plus [rto]), fenced to the node's current
    incarnation. [msg] is a [Request] timer's message, else [[||]]. *)

val backoff : rto:int -> cap:int -> int
(** The timeout of a re-armed timer: [min (2 * rto) cap]. *)

val capacity : t -> int
(** Slots allocated; the slab doubles when every slot is armed. *)

val armed : t -> int
(** Timers armed and not yet popped. *)
