(** Deterministic fault injection for the simulated network.

    A {!spec} describes a fault regime (per-message drop/duplication/delay
    probabilities, per-node transient NIC outage windows, an optional slow
    node, and crash-restart windows in which a node loses its volatile
    state); {!make} instantiates it into a plan whose every decision is
    drawn from a seeded {!Dpa_util.Rng}, so a given (spec, seed, nodes)
    triple replays the exact same fault schedule — chaos runs are
    reproducible bit-for-bit, which is what lets the test suite assert that
    computed results are identical to the fault-free run.

    The message layer ({!Dpa_msg.Am}) consults the plan once per physical
    transmission; when any plan is installed on an engine the reliable
    delivery protocol (sequence-numbered envelopes, acks, deduplication,
    retransmission with capped exponential backoff, incarnation fencing)
    switches on with it. With no plan installed neither exists and the
    simulation is bit-identical to a build without this module.

    Two fault classes take a node down for a window of simulated time:

    - an {e outage} silences the node's NIC — messages to or from it are
      dropped for the window, but all node state survives;
    - a {e crash} additionally destroys the node's volatile state. The
      runtime ({!Dpa.Runtime}) reacts by bumping the node's incarnation,
      discarding its alignment buffer, aggregation batches and in-flight
      transport conversations, and — at the restart instant — re-fetching
      every outstanding request through the normal alignment path.

    This module only decides {e when} crashes happen (it draws the windows
    and silences the NIC for their duration, exactly like outages); the
    state loss and recovery live in the runtime and message layers. See
    DESIGN.md §13 for the full fault-model contract and docs/FAULTS.md for
    the operator guide. *)

type spec = {
  drop : float;  (** per-message drop probability, [0, 1) *)
  dup : float;  (** per-message duplication probability, [0, 1) *)
  delay : float;  (** probability of extra delivery delay, [0, 1) *)
  jitter_ns : int;  (** extra delay drawn uniform in [1, jitter_ns] *)
  outages : int;  (** transient NIC outage windows per node *)
  outage_ns : int;  (** length of each outage window *)
  outage_horizon_ns : int;
      (** outage and crash window start times are drawn uniform in
          [0, horizon) of simulated time *)
  slow_node : int;  (** node whose NIC is slow, or -1 for none *)
  slow_factor : float;
      (** >= 1; messages to/from the slow node take [slow_factor] times
          their serialization time extra on the wire *)
  crashes : int;  (** crash-restart windows per node *)
  crash_ns : int;
      (** down time of each crash: the node rejoins (with a fresh
          incarnation and cold volatile state) [crash_ns] after the crash
          instant *)
  corrupt : float;
      (** per-delivered-copy wire-corruption probability, [0, 1): a
          corrupted copy has one seeded bit flipped in its checksum-fenced
          frame ({!Dpa_msg.Wire}), fails verification at the destination
          NIC, and is counted and dropped — no ack, no handler — so the
          retransmission machinery recovers it as a loss *)
  torn_wal : float;
      (** per-crash, per-log torn-write probability, [0, 1] (1 is allowed:
          every crash tears deterministically): the victim's update-WAL
          and applied-batch journal may each lose or corrupt their tail
          record, which the restart walk's checksum scan detects and
          repairs ({!Dpa.Wal}) *)
}

val none : spec
(** All rates zero. Installing it still enables the reliable-delivery
    protocol (useful for measuring pure protocol overhead); leaving the
    machine's fault field [None] disables both. *)

val spec_of_string : string -> (spec, string) result
(** Parse ["none"], ["light"] (1% drop, 0.5% duplication, 5% delayed),
    ["heavy"] (10% drop, 2% duplication, 10% delayed, one outage window
    per node), or a comma-separated
    [key=value] list over the knobs [drop], [dup], [delay], [jitter-ns],
    [outages], [outage-ns], [crashes], [crash-ns], [horizon-ns],
    [slow-node], [slow-factor], [corrupt], [torn-wal]
    (e.g. ["drop=0.05,dup=0.01,outages=1"]).
    The first field may be a preset name that the remaining knobs
    override, e.g. ["heavy,crashes=1"]. Unset knobs default to {!none}'s
    values. Errors name the offending field {e and} enumerate the accepted
    keys. *)

type t
(** An instantiated plan: spec + seeded RNG + injection counters. *)

val make : ?seed:int -> spec -> nodes:int -> t
(** Validates the spec ([Invalid_argument] on out-of-range knobs) and
    draws the outage and crash schedules. Equal (spec, seed, nodes) give
    equal plans; crash windows are drawn after the outage windows on the
    same per-node streams, so adding [crashes = 0] to an existing spec
    changes nothing. *)

type verdict =
  | Deliver
      (** delivered as {!copies} copies (two when duplicated), copy [i]
          {!extra}[ i] ns beyond the fault-free arrival time *)
  | Drop  (** lost in the network *)
  | Outage
      (** dropped because an endpoint's NIC was down — either an outage
          window or a crash window (see {!crash_drops} for the split) *)

val judge :
  t -> now:int -> arrival:int -> src:int -> dst:int -> transfer_ns:int ->
  verdict
(** Decide the fate of one physical transmission sent at [now] that would
    arrive fault-free at [arrival]. [transfer_ns] is its serialization
    time, the base the slow-node penalty scales. Consumes RNG draws; the
    engine's deterministic event order makes the draw sequence — and hence
    the whole fault schedule — reproducible. Allocates nothing: a
    [Deliver] verdict's delays are held in the plan until the next call. *)

val copies : t -> int
(** Copies the last [Deliver] verdict delivers: 1, or 2 when duplicated. *)

val extra : t -> int -> int
(** [extra t i] is copy [i]'s extra delay under the last [Deliver]
    verdict, [0 <= i < copies t]; the second copy always trails the
    first. *)

val outage_windows : t -> node:int -> (int * int) list
(** The [(start, end)] outage windows drawn for [node] at {!make} time. *)

val crash_windows : t -> node:int -> (int * int) list
(** The [(crash, restart)] instants drawn for [node] at {!make} time,
    sorted by crash instant. The runtime executes the state loss at
    [crash] and the rejoin at [restart]. *)

val has_crashes : t -> bool
(** [true] iff the spec schedules at least one crash window per node —
    the runtime's cue to post crash/restart events for a phase. *)

val drops : t -> int
val dups : t -> int
val delayed : t -> int

val outage_drops : t -> int
(** Transmissions silenced by an outage window. *)

val crash_drops : t -> int
(** Transmissions silenced by a crash window (reported as
    {!constructor-Outage} verdicts, counted separately). *)

(** {2 Integrity fault classes}

    Corruption and torn-write draws come from dedicated streams seeded
    independently of the plan's base RNG (no {!Dpa_util.Rng.split} off it,
    which would consume a draw): toggling either knob leaves the
    drop/dup/delay/outage/crash schedule bit-identical, and a spec with
    the knob at zero replays exactly as one without it. *)

val corrupt_copy : t -> int option
(** Per delivered copy: [Some r] when this copy is corrupted, where [r]
    seeds the bit position to flip in its frame; [None] (with no stream
    access) when [corrupt] is zero. Counted in {!corruptions}. *)

type tear = {
  tear_log : [ `Update_wal | `Journal ];  (** which durable log is hit *)
  tear_slot : bool;
      (** tear the doublewrite slot instead of the main log tail *)
  tear_flip : bool;  (** bit-flip rather than truncate *)
  tear_pos : int;  (** seeds the byte/bit position within the tail *)
}

val draw_tears : t -> tear list
(** Per crash event: the torn-write damage to apply to the victim's
    durable logs (at most one entry per log). Empty — with no stream
    access — when [torn_wal] is zero. Counted in {!tears}. *)

val corruptions : t -> int
(** Copies the plan decided to corrupt ({!corrupt_copy} = [Some _]). *)

val tears : t -> int
(** Log tears drawn by {!draw_tears}. *)

val set_global : ?seed:int -> spec option -> unit
(** Process-global default plan spec, picked up by
    {!Dpa_sim.Engine.create} when the machine carries no fault spec of its
    own — the CLI's [--faults] flag uses this, mirroring
    [Dpa_obs.Sink.set_global]. *)

val global : unit -> (spec * int) option
