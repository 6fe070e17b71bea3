(** Per-node state: a simulated processor with a local clock and time
    accounting split into local work, communication overhead and idle time —
    the three segments of the paper's breakdown figures. *)

type segment_kind = Local | Comm | Idle

type t = {
  id : int;
  mutable tracer : (segment_kind -> start:int -> dur:int -> unit) option;
      (** segment observer installed by {!set_tracer} *)
  mutable clock : int;  (** local virtual time, ns *)
  mutable link_free_at : int;
      (** earliest time the node's ingress link is free (used only when
          {!Machine.t.ingress_serialized} is set) *)
  mutable out_link_free_at : int;
      (** earliest time the node's egress link is free (same flag) *)
  mutable local_ns : int;  (** time spent in application computation *)
  mutable comm_ns : int;  (** time spent in messaging / runtime overhead *)
  mutable idle_ns : int;  (** time spent waiting with nothing to run *)
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable msgs_recv : int;
  mutable bytes_recv : int;
  mutable incarnation : int;
      (** crash-restart epoch, 0 at boot; the runtime bumps it when the
          node crashes. Messages stamp the destination's incarnation at
          transmit time and are fenced (rejected without effect) if it has
          changed by delivery — see {!Dpa_msg.Am} and DESIGN.md §13. *)
}

val create : id:int -> t

val charge_local : t -> int -> unit
(** Advance the clock by [ns] of application work. *)

val charge_comm : t -> int -> unit
(** Advance the clock by [ns] of communication overhead. *)

val wait_until : t -> int -> unit
(** Advance the clock to [time], accounting the gap as idle. No-op when
    [time <= clock]. *)

val reset_breakdown : t -> unit
(** Zero the accounting counters (not the clock); used at phase start. *)

val set_tracer : t -> (segment_kind -> start:int -> dur:int -> unit) option -> unit
(** Install (or remove) a segment observer: every charge and idle gap is
    reported with its start time and duration. Used by {!Trace}. *)
