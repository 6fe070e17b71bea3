(** Active-message layer in the style of Illinois Fast Messages.

    [send] charges the sender its injection overhead, computes the arrival
    time from the wire latency and serialization of [bytes], and schedules
    the handler on the destination node, where the extraction overhead is
    charged before the handler body runs. Handlers run at
    [max(arrival, destination clock)] — a busy receiver polls the message
    later, exactly the behaviour FM's poll-based extraction has.

    {2 Reliable delivery}

    When the engine carries a fault plan ({!Dpa_sim.Engine.fault}), every
    [send] becomes a sequence-numbered envelope: the receiver's NIC
    acknowledges each copy as it arrives on the wire (header-only ack,
    itself unprotected and charged to no node clock — a backlogged
    receiver must not make its acks look lost) and the handler runs only
    for the first copy of a sequence number, while the sender retransmits
    on a timeout that backs off exponentially until the ack lands. The
    receiver's dedup state is one flag on the envelope itself, whose slot
    is kept until the envelope is done and its last copy has landed, so
    this module alone decides when that state may go: no caller prunes
    anything.
    Handlers therefore run exactly once per [send] on any network the
    plan can express, and with no fault plan installed the protocol does
    not exist — no acks, no timers, no state — so fault-free runs are
    bit-identical to a build without this layer.

    {2 Crash-restart and incarnation fencing}

    A crash window ({!Dpa_sim.Fault.spec}[.crashes]) destroys a node's
    volatile transport state. Every transmission is stamped with the
    destination's {!Dpa_sim.Node.t}[.incarnation] at the moment it is put
    on the wire; a copy arriving after the destination has crash-restarted
    is {e fenced} — its bytes are counted but no ack is sent and no
    handler runs, so responses and requests addressed to a dead
    incarnation can never act on the new one's state. Retransmission
    attempts re-stamp, so a fenced conversation completes on the first
    attempt after the restart. {!on_crash} performs the state loss itself;
    the exactly-once guarantee then holds {e per incarnation}, and
    cross-crash effect deduplication is the application layer's job (the
    runtime keeps a durable applied-journal for accumulate batches — see
    DESIGN.md §13).

    {2 Checksum fencing}

    When the fault plan carries a positive [corrupt] rate, every physical
    copy — data and ack alike — is materialized as a checksum-fenced frame
    ({!Wire}): sealed with a CRC-32 at wire-out, verified at the
    destination NIC. A copy the plan corrupts (one seeded bit flipped)
    fails verification and is counted and dropped {e wire-silently}: its
    bytes land on the NIC but no ack is generated and no handler runs, so
    a corrupted copy is indistinguishable from a loss to the sender and
    the ordinary retransmission machinery recovers it. A corrupted ack
    leaves the envelope pending; a duplicate ack or one spurious
    retransmit (absorbed by the dedup flag) completes it. With
    [corrupt = 0] no frame is ever built and the run replays
    bit-identically to a build without the integrity layer. *)

open Dpa_sim

type handler = Node.t -> int -> int -> int array -> unit
(** A data message's handler: it runs on the destination node with the
    message's two ints and its payload. *)

val no_handler : handler
(** Does nothing: a placeholder for handlers built after their owner. *)

val send_data :
  Engine.t ->
  src:Node.t ->
  dst:int ->
  bytes:int ->
  handler ->
  int ->
  int ->
  int array ->
  unit
(** [send_data engine ~src ~dst ~bytes handler a b payload]: a message as
    data. On the perfect network it occupies one slot of the engine's
    message slab (columns: destination, bytes, causal flight id, handler,
    [a], [b], [payload]), and each slot posts its own preallocated delivery
    action — so a send whose handler is built once, and whose payload
    already exists, allocates nothing. Under a fault plan the message
    rides the reliable envelope described above, which is slab data too:
    the envelope's state, each copy on the wire, each ack and the armed
    retransmit timeout are slots of the same slab (docs/FAULTS.md lays
    them out), a copy or ack the plan corrupts is framed in one
    per-engine scratch buffer, so such a send allocates nothing either.
    [bytes] must include the header; a message smaller than the header
    raises [Invalid_argument] naming both nodes, its size and the
    header's. *)

val send :
  Engine.t -> src:Node.t -> dst:int -> bytes:int -> (Node.t -> unit) -> unit
(** [send engine ~src ~dst ~bytes handler]: {!send_data} with [handler]
    wrapped in a closure that ignores the ints and payload. The wrapper is
    one allocation per send; a hot path builds its {!handler} directly. *)

val request_bytes : Machine.t -> nreqs:int -> int
(** Size of an aggregated read-request message carrying [nreqs] entries. *)

val reply_bytes : Machine.t -> payload:int -> nreqs:int -> int
(** Size of a bulk reply: header, one request-entry echo (token) per object,
    plus the serialized objects themselves ([payload] bytes). *)

val update_bytes : Machine.t -> nupdates:int -> int
(** Size of an aggregated accumulate-update message. *)

type stats = {
  in_flight : int;  (** envelopes sent but not yet acknowledged *)
  retransmits : int;  (** timeout-driven re-sends *)
  retransmit_bytes : int;  (** payload bytes re-sent *)
  acks : int;  (** acknowledgements injected by receivers *)
  dups_suppressed : int;  (** duplicate copies discarded by the dedup flag *)
  seen_entries : int;
      (** envelope slots still holding dedup state: sent, and not yet both
          done and clear of every copy *)
  pruned : int;  (** dedup states freed with their envelopes so far *)
  fenced : int;  (** copies rejected because addressed to a dead incarnation *)
  crash_wiped : int;  (** unacked envelopes destroyed by their sender's crash *)
  corrupt_dropped : int;
      (** copies (data or ack) whose frame failed CRC verification at the
          destination NIC and were dropped wire-silently *)
}

val stats : Engine.t -> stats option
(** Reliable-transport counters; [None] until the first [send] under a
    fault plan instantiates the protocol state. *)

val corrupt_dropped_per_node : Engine.t -> int array
(** Per-node breakdown of [stats.corrupt_dropped] — how many corrupted
    copies each node's NIC fenced. The runtime snapshots this at phase
    boundaries to attribute corruption drops to phases in the profile's
    integrity table. Empty array without protocol state. *)

val in_flight : Engine.t -> int
(** Unacknowledged envelopes right now ([0] without protocol state). *)

val certify_barrier : Engine.t -> caller:string -> unit
(** The phase barrier's transport certificate, for a drained event queue:
    fails naming [caller] and the count when an envelope is still
    unacknowledged (a lost retransmit timer) or still holds its slot (a
    leaked slot). No-op without protocol state. *)

val prune_seen : Engine.t -> int
(** Returns [0]. Dedup state is freed with its envelope, so there is
    nothing to prune; this is kept only because the committed benchmark's
    layer timings call it. *)

val on_crash : Engine.t -> node:int -> int
(** Destroy the volatile transport state of [node] at the instant it
    crashes: its unacknowledged envelopes (returned count) vanish from the
    retransmit buffer, the dedup flags of the envelopes addressed to it are
    cleared, and the RTT
    filters of every link touching it are {!Rtt.reset} so they re-converge
    against the restarted node. The caller ({!Dpa.Runtime}) is responsible
    for bumping the node's incarnation first and for re-issuing whatever
    application state still matters. The engine-wide end-to-end filter is
    kept — crash recovery latencies are signal, not noise, for the retry
    wheel. No-op ([0]) without protocol state. *)

(** {2 Round-trip estimation}

    Under [Machine.adaptive_rto] (the default) the retransmission timeout
    is not the constant worst-case formula but a Jacobson–Karels estimate
    fed by ack round trips. Because acks are timestamped at the wire (see
    above), the samples measure network latency, not receiver backlog —
    which is exactly what a retransmission decision needs. Retransmitted
    envelopes never feed the per-link filter (Karn's algorithm). *)

val initial_rto : Machine.t -> bytes:int -> int
(** The constant worst-case transport timeout for a [bytes]-byte message:
    a fault-free round trip (injection overheads, the payload out, a
    header-only ack back) plus four poll quanta of slack. The runtime's
    end-to-end request timer and the caching baseline's fetch timer start
    from eight times this. *)

val link_rtt : Engine.t -> src:int -> dst:int -> Rtt.t option
(** The (src, dst) link's ack round-trip estimator, once it has at least
    one sample. [None] without protocol state or samples. *)

val e2e_rto : Engine.t -> fallback:int -> int
(** Timeout base for an end-to-end request timer: twice the estimated
    full-delivery latency (first transmission to acknowledgement,
    retransmission recovery included — one delivery each way), but never
    below [fallback]. Returns [fallback] verbatim until the estimator has
    a sample, so a fault-free-calibrated constant remains the floor. *)
