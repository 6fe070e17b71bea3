(** Cost model of the simulated distributed-memory machine.

    All times are nanoseconds of simulated time. The defaults ([t3d]) are
    calibrated to the Cray T3D with Illinois Fast Messages, the platform of
    the DPA paper: 150 MHz Alpha nodes, microsecond-scale message overheads,
    and tens of MB/s of deliverable bandwidth. *)

type t = {
  nodes : int;  (** number of processing nodes *)
  send_overhead_ns : int;  (** CPU cost to inject one message *)
  recv_overhead_ns : int;  (** CPU cost to extract one message *)
  wire_latency_ns : int;  (** network transit time, independent of size *)
  ns_per_byte : float;  (** inverse bandwidth *)
  request_service_ns : int;  (** fixed cost of a remote-read request handler *)
  request_service_per_obj_ns : int;  (** additional cost per object served *)
  hash_probe_ns : int;  (** software-caching hash lookup (baseline) *)
  spawn_overhead_ns : int;  (** creating a DPA thread record *)
  dispatch_overhead_ns : int;  (** scheduling a ready DPA thread *)
  poll_quantum_ns : int;  (** max uninterrupted compute between polls *)
  msg_header_bytes : int;  (** per-message envelope *)
  req_entry_bytes : int;  (** per-request bytes in an aggregated message *)
  update_entry_bytes : int;  (** per-update bytes (pointer, field, value) *)
  update_apply_ns : int;  (** owner-side cost to apply one update *)
  ingress_serialized : bool;
      (** when true, messages to the same destination serialize through its
          network interface (one at a time at wire bandwidth) — hot spots
          become visible. Off by default: links are contention-free. *)
  faults : Fault.spec option;
      (** when set, every message transmission is judged by a
          {!Fault.t} plan instantiated per engine, and the message layer
          switches to its reliable-delivery protocol (envelopes, acks,
          dedup, retransmission). [None] (the default) is the perfect
          network the paper assumes — and is bit-identical to builds
          without the fault subsystem. *)
  fault_seed : int;  (** seed for the per-engine fault plan *)
  adaptive_rto : bool;
      (** when true (the default), the reliable-delivery layer bases its
          retransmission timeout on a Jacobson–Karels estimate of the
          per-link ack round trip, and the DPA runtime's end-to-end
          request timers on an estimate of full delivery latency
          (including retransmission recovery), instead of the constant
          worst-case formula. Only observable under a fault plan: the
          fault-free path arms no timers at all. *)
}

val t3d : nodes:int -> t
(** T3D-era defaults for a machine with [nodes] nodes. *)

val make :
  ?send_overhead_ns:int ->
  ?recv_overhead_ns:int ->
  ?wire_latency_ns:int ->
  ?ns_per_byte:float ->
  ?request_service_ns:int ->
  ?request_service_per_obj_ns:int ->
  ?hash_probe_ns:int ->
  ?spawn_overhead_ns:int ->
  ?dispatch_overhead_ns:int ->
  ?poll_quantum_ns:int ->
  ?msg_header_bytes:int ->
  ?req_entry_bytes:int ->
  ?update_entry_bytes:int ->
  ?update_apply_ns:int ->
  ?ingress_serialized:bool ->
  ?faults:Fault.spec ->
  ?fault_seed:int ->
  ?adaptive_rto:bool ->
  nodes:int ->
  unit ->
  t

val set_default_adaptive_rto : bool -> unit
(** Process-wide default for {!make}'s [?adaptive_rto] (initially [true]);
    the CLI's [--rto] flag sets it so a whole experiment run switches
    retransmission policy without plumbing. An explicit [?adaptive_rto]
    always wins. *)

val transfer_ns : t -> bytes:int -> int
(** Time for [bytes] to cross the wire after injection: latency plus
    serialization. *)
