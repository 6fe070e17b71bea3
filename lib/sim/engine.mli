(** Discrete-event simulation engine.

    The engine owns one {!Node.t} per machine node and a global event queue.
    An event targets a node; when a [Work] event is popped, the node's
    clock is advanced to the event timestamp (the gap accounted as idle —
    the node had nothing runnable, otherwise it would have scheduled work)
    and the action runs with the node clock as "now". Actions advance the clock through
    {!Node.charge_local} / {!Node.charge_comm} and may post further events.

    A busy node therefore serializes naturally: an event whose timestamp is
    in the node's past executes at the node's current clock, modelling a
    processor that polls the network only between units of work. *)

type t

type ext = ..
(** Extension slot for higher layers: the reliable transport in
    {!Dpa_msg.Am} keeps its per-engine protocol state (sequence counters,
    retransmit buffers, dedup flags) here, without the simulator depending
    on the message layer. *)

val create : Machine.t -> t
(** The engine adopts {!Dpa_obs.Sink.global} (if any) as its event sink,
    and instantiates a {!Fault.t} plan from the machine's fault spec (or
    the {!Fault.set_global} default) when one is set. *)

val machine : t -> Machine.t
val nodes : t -> Node.t array
val node : t -> int -> Node.t

val sink : t -> Dpa_obs.Sink.t option
(** The structured-event sink runtimes on this engine emit into. [None]
    (the default when no global sink is set) disables all emission at zero
    cost — producers guard every hook on this option. *)

val set_sink : t -> Dpa_obs.Sink.t option -> unit

val fault : t -> Fault.t option
(** The fault plan every message transmission is judged by; [None] (the
    default) is the perfect network, with the reliable-delivery protocol
    disabled and zero cost. *)

val set_fault : t -> Fault.t option -> unit

val ext : t -> ext option
val set_ext : t -> ext option -> unit

type kind =
  | Work
      (** Popping the event advances the node clock to the event time (the
          gap accounted as idle) before the action runs. *)
  | Soft
      (** The action runs at the node's current clock, wherever the node
          left it, and must call {!Node.wait_until} itself if it does real
          work. This is what timeout wheels are built from: a timer that
          finds its message already acknowledged is a pure no-op and leaves
          the simulation untouched. *)
  | Background
      (** Like [Soft], and not counted by {!live_events}: the event neither
          keeps the phase alive nor keeps samplers ticking. Crash and
          restart instants are background events, so a crash drawn past the
          end of the phase's real work checks [live_events > 0] and no-ops
          instead of stretching the phase. *)

val post : ?kind:kind -> t -> time:int -> node:int -> (unit -> unit) -> unit
(** Schedule an action on [node] no earlier than [time], as a [kind] event
    (default [Work]). Raises [Invalid_argument] on a node id outside the
    machine. *)

val live_events : t -> int
(** Pending events that are not [Background]. *)

val start_sampler : t -> period_ns:int -> name:string -> (Node.t -> int) -> unit
(** Fixed-rate counter track: every [period_ns] of sim-time emit one
    counter sample per node valued [f node] into the engine's sink (no-op
    without one). Ticks are [Background] events, so a sampled run is
    bit-identical to an unsampled one; sampling starts one period after the
    current {!elapsed} and stops at the first tick that finds no live event
    pending — i.e. when the phase has drained. *)

val run : t -> unit
(** Process events until the queue is empty. *)

val events_processed : t -> int

val barrier : t -> unit
(** Synchronize: advance every node's clock to the global maximum,
    accounting the gaps as idle. The queue must be empty: otherwise
    raises [Invalid_argument] naming the pending and live event counts
    and the earliest pending event's time and node. Emits one
    "barrier" instant per node when a sink is attached, flushes the
    sink's stream writer, and — when the sink carries a causal graph —
    runs {!Dpa_obs.Critpath.at_barrier} over the phase window. *)

val elapsed : t -> int
(** Maximum node clock. *)
