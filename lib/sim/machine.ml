type t = {
  nodes : int;
  send_overhead_ns : int;
  recv_overhead_ns : int;
  wire_latency_ns : int;
  ns_per_byte : float;
  request_service_ns : int;
  request_service_per_obj_ns : int;
  hash_probe_ns : int;
  spawn_overhead_ns : int;
  dispatch_overhead_ns : int;
  poll_quantum_ns : int;
  msg_header_bytes : int;
  req_entry_bytes : int;
  update_entry_bytes : int;
  update_apply_ns : int;
  ingress_serialized : bool;
  faults : Fault.spec option;
  fault_seed : int;
  adaptive_rto : bool;
}

(* Process-wide default for [adaptive_rto], so the CLI can flip the whole
   run between the constant-base and estimator-driven retransmission
   policies without plumbing a flag through every experiment. *)
let default_adaptive_rto = ref true

let set_default_adaptive_rto b = default_adaptive_rto := b

let make ?(send_overhead_ns = 2_500) ?(recv_overhead_ns = 2_500)
    ?(wire_latency_ns = 2_000) ?(ns_per_byte = 33.)
    ?(request_service_ns = 1_500) ?(request_service_per_obj_ns = 200)
    ?(hash_probe_ns = 700) ?(spawn_overhead_ns = 700)
    ?(dispatch_overhead_ns = 100) ?(poll_quantum_ns = 50_000)
    ?(msg_header_bytes = 16) ?(req_entry_bytes = 12)
    ?(update_entry_bytes = 20) ?(update_apply_ns = 150)
    ?(ingress_serialized = false) ?faults ?(fault_seed = 0x5EED)
    ?adaptive_rto ~nodes () =
  if nodes <= 0 then invalid_arg "Machine.make: nodes must be positive";
  let adaptive_rto =
    match adaptive_rto with Some b -> b | None -> !default_adaptive_rto
  in
  {
    nodes;
    send_overhead_ns;
    recv_overhead_ns;
    wire_latency_ns;
    ns_per_byte;
    request_service_ns;
    request_service_per_obj_ns;
    hash_probe_ns;
    spawn_overhead_ns;
    dispatch_overhead_ns;
    poll_quantum_ns;
    msg_header_bytes;
    req_entry_bytes;
    update_entry_bytes;
    update_apply_ns;
    ingress_serialized;
    faults;
    fault_seed;
    adaptive_rto;
  }

let t3d ~nodes = make ~nodes ()

let transfer_ns t ~bytes =
  t.wire_latency_ns + int_of_float (ceil (float_of_int bytes *. t.ns_per_byte))
