open Dpa_sim

let message_bytes (m : Machine.t) ~payload = m.msg_header_bytes + payload

let request_bytes (m : Machine.t) ~nreqs =
  m.msg_header_bytes + (nreqs * m.req_entry_bytes)

let update_bytes (m : Machine.t) ~nupdates =
  m.msg_header_bytes + (nupdates * m.update_entry_bytes)

let reply_bytes (m : Machine.t) ~payload ~nreqs =
  m.msg_header_bytes + (nreqs * m.req_entry_bytes) + payload

(* --- wire-out ---------------------------------------------------------- *)

(* Compute the fault-free arrival time of one transmission, charging the
   sender and (under [ingress_serialized]) occupying the links. Shared by
   both paths so link contention behaves identically with and without
   faults. *)
let injected_arrival engine (m : Machine.t) ~(src : Node.t) ~dst ~bytes =
  Node.charge_comm src m.Machine.send_overhead_ns;
  src.Node.msgs_sent <- src.Node.msgs_sent + 1;
  src.Node.bytes_sent <- src.Node.bytes_sent + bytes;
  if m.Machine.ingress_serialized then begin
    (* Each NIC moves one message at a time: the message first drains
       through the sender's egress link, crosses the wire, then drains
       through the destination's ingress link. *)
    let ser = int_of_float (ceil (float_of_int bytes *. m.Machine.ns_per_byte)) in
    let out_start = max src.Node.clock src.Node.out_link_free_at in
    let out_done = out_start + ser in
    src.Node.out_link_free_at <- out_done;
    let d = Engine.node engine dst in
    let in_start = max (out_done + m.Machine.wire_latency_ns) d.Node.link_free_at in
    let finish = in_start + ser in
    d.Node.link_free_at <- finish;
    finish
  end
  else src.Node.clock + Machine.transfer_ns m ~bytes

(* --- causal tracing hooks ----------------------------------------------- *)

let causal engine =
  match Engine.sink engine with
  | None -> None
  | Some s -> Dpa_obs.Sink.causal s

(* The args both instants of a flow pair carry after their span_id/parent. *)
let flow_args sink ~flow_id ~src ~dst ~seq ~inc =
  Dpa_obs.Sink.str sink "id" flow_id;
  Dpa_obs.Sink.int sink "src" src;
  Dpa_obs.Sink.int sink "dst" dst;
  Dpa_obs.Sink.int sink "seq" seq;
  Dpa_obs.Sink.int sink "inc" inc

(* Chrome-trace flow arrows: one "s"/"f" instant pair per delivered copy,
   bound by an id derived from (src, dst, seq, incarnation) — retransmitted
   copies of one envelope share the id, so Perfetto draws every arrow of
   the recovery. The span_id/parent args double as the streamed form of the
   causal edges that bin/artifact_check validates. *)
let emit_flow engine ~fid ~parent ~src ~dst ~seq ~inc ~sent ~at =
  match Engine.sink engine with
  | None -> ()
  | Some sink ->
    let flow_id =
      String.concat "/"
        [
          string_of_int src; string_of_int dst; string_of_int seq;
          string_of_int inc;
        ]
    in
    Dpa_obs.Sink.instant sink ~cat:"flow" ~name:"flow_s" ~node:src ~ts:sent;
    Dpa_obs.Sink.int sink "span_id" fid;
    if parent >= 0 then Dpa_obs.Sink.int sink "parent" parent;
    flow_args sink ~flow_id ~src ~dst ~seq ~inc;
    Dpa_obs.Sink.instant sink ~cat:"flow" ~name:"flow_f" ~node:dst ~ts:at;
    Dpa_obs.Sink.int sink "parent" fid;
    flow_args sink ~flow_id ~src ~dst ~seq ~inc

(* Record one delivered copy as a flight node parented at the sender's
   activity ([cparent], read at wire-out and frozen for the envelope's
   lifetime), and emit its flow pair. Returns the flight id. *)
let record_flight engine c ~cparent ~attempt ~src ~dst ?seq ~inc ~sent ~at () =
  let fid = Dpa_obs.Causal.fresh c in
  (* Envelope-less (perfect-network) flights use their own id as the flow
     sequence, keeping flow ids unique per conversation. *)
  let seq = match seq with Some s -> s | None -> fid in
  let seg =
    if attempt > 1 then Dpa_obs.Causal.Retransmit else Dpa_obs.Causal.Wire
  in
  let kind =
    if attempt > 1 then Dpa_obs.Causal.Retry else Dpa_obs.Causal.Send
  in
  Dpa_obs.Causal.node ~seg c ~id:fid ~ts:sent ~dur:(at - sent);
  Dpa_obs.Causal.edge c ~kind ~parent:cparent ~child:fid;
  emit_flow engine ~fid ~parent:cparent ~src ~dst ~seq ~inc ~sent ~at;
  fid

(* --- per-engine state ------------------------------------------------ *)

type pending = {
  p_src : int;  (* originating node: crash wipes its retransmit buffer *)
  p_first_sent : int;  (* for the recovery-latency histogram *)
  mutable p_attempts : int;
  mutable p_rto_ns : int;
  mutable p_budget : int;
      (* attempts burned against the CURRENT destination incarnation —
         reset whenever the destination crash-restarts, so copies fenced
         into a dead incarnation's wire silence never count toward the
         hard [max_attempts] verdict. [p_attempts] stays monotone: it
         feeds Karn filtering and the Retransmit causal segment, which
         care about physical transmissions, not budget. *)
  mutable p_inc : int;  (* destination incarnation at the last attempt *)
  mutable p_incs_seen : int;  (* distinct destination incarnations tried *)
  p_causal : int;
      (* causal parent stamped at wire-out of the FIRST attempt (-1 when
         tracing is off). Retransmissions re-read this, never the cursor —
         the timeout handler runs outside any activity, and causally the
         retry still stems from whatever first sent the envelope. *)
}

type state = {
  mutable next_seq : int;
  nnodes : int;
  pending : (int, pending) Hashtbl.t;  (* unacked envelopes, by seq *)
  seen : (int, unit) Hashtbl.t array;  (* per receiving node: delivered seqs *)
  rtt : Rtt.t array;  (* per (src, dst) link: ack round trips, Karn-filtered *)
  e2e : Rtt.t;
      (* engine-wide first-send -> acknowledged latency, retransmission
         recovery included — the signal the runtime's end-to-end timeout
         wheel scales itself by *)
  mutable retransmits : int;
  mutable retransmit_bytes : int;
  mutable acks : int;
  mutable dups_suppressed : int;
  mutable pruned : int;  (* dedup entries reclaimed at phase barriers *)
  mutable fenced : int;  (* copies rejected by incarnation fencing *)
  mutable crash_wiped : int;  (* envelopes lost with their sender's crash *)
  corrupt_dropped : int array;
      (* per node: copies whose frame failed checksum verification at that
         node's NIC — kept per node so the profile's integrity table can
         show the sum-across-nodes breakdown *)
}

type stats = {
  in_flight : int;
  retransmits : int;
  retransmit_bytes : int;
  acks : int;
  dups_suppressed : int;
  seen_entries : int;
  pruned : int;
  fenced : int;
  crash_wiped : int;
  corrupt_dropped : int;
}

(* Messages as data. Every fault-free transmission in flight occupies one
   slot of a per-engine slab of parallel columns — destination, bytes,
   causal flight id, handler, two ints and an int-array payload — and each
   slot owns one delivery action, built when the slab grows. Sending writes
   the columns and posts that action, so with a handler built once per
   runtime context a message allocates nothing; the slot returns to a free
   stack the moment its delivery pops, before the handler runs. *)
type handler = Node.t -> int -> int -> int array -> unit

type slab = {
  mutable dst : int array;
  mutable bytes : int array;
  mutable fid : int array;  (* causal flight id, -1 untraced *)
  mutable handler : handler array;
  mutable a : int array;
  mutable b : int array;
  mutable payload : int array array;
  mutable action : (unit -> unit) array;
  mutable free : int array;  (* vacant slots, a stack *)
  mutable nfree : int;
}

(* The engine's extension slot holds the slab, and the reliable-delivery
   state once a send under a fault plan has created it. *)
type layer = { slab : slab; mutable reliable : state option }

type Engine.ext += Layer of layer

let no_handler : handler = fun _ _ _ _ -> ()

(* Vacant slots hold [no_handler] and an empty payload, so a delivered
   message retains neither its handler's context nor its array. *)
let deliver engine s i =
  let dst = s.dst.(i)
  and bytes = s.bytes.(i)
  and fid = s.fid.(i)
  and handler = s.handler.(i)
  and a = s.a.(i)
  and b = s.b.(i)
  and payload = s.payload.(i) in
  s.handler.(i) <- no_handler;
  s.payload.(i) <- [||];
  s.free.(s.nfree) <- i;
  s.nfree <- s.nfree + 1;
  let d = Engine.node engine dst in
  Node.charge_comm d (Engine.machine engine).Machine.recv_overhead_ns;
  d.Node.msgs_recv <- d.Node.msgs_recv + 1;
  d.Node.bytes_recv <- d.Node.bytes_recv + bytes;
  match causal engine with
  | Some c when fid >= 0 ->
    Dpa_obs.Causal.with_current c fid (fun () -> handler d a b payload)
  | _ -> handler d a b payload

(* Called with the free stack empty: double every column and stack the new
   slots, lowest on top. *)
let grow engine s =
  let cap = Array.length s.dst in
  let ncap = max 64 (2 * cap) in
  let widen col fill =
    let c = Array.make ncap fill in
    Array.blit col 0 c 0 cap;
    c
  in
  s.dst <- widen s.dst 0;
  s.bytes <- widen s.bytes 0;
  s.fid <- widen s.fid (-1);
  s.handler <- widen s.handler no_handler;
  s.a <- widen s.a 0;
  s.b <- widen s.b 0;
  s.payload <- widen s.payload [||];
  s.action <- widen s.action ignore;
  for i = cap to ncap - 1 do
    s.action.(i) <- (fun () -> deliver engine s i)
  done;
  s.free <- Array.make ncap 0;
  for i = ncap - 1 downto cap do
    s.free.(s.nfree) <- i;
    s.nfree <- s.nfree + 1
  done

let layer engine =
  match Engine.ext engine with
  | Some (Layer l) -> l
  | _ ->
    let l =
      {
        slab =
          {
            dst = [||];
            bytes = [||];
            fid = [||];
            handler = [||];
            a = [||];
            b = [||];
            payload = [||];
            action = [||];
            free = [||];
            nfree = 0;
          };
        reliable = None;
      }
    in
    Engine.set_ext engine (Some (Layer l));
    l

(* The reliable-delivery state; [None] until a send under a fault plan. *)
let reliable engine =
  match Engine.ext engine with Some (Layer l) -> l.reliable | _ -> None

let state engine =
  let l = layer engine in
  match l.reliable with
  | Some s -> s
  | None ->
    let nnodes = Array.length (Engine.nodes engine) in
    let s =
      {
        next_seq = 0;
        nnodes;
        pending = Hashtbl.create 256;
        seen = Array.init nnodes (fun _ -> Hashtbl.create 1024);
        rtt = Array.init (nnodes * nnodes) (fun _ -> Rtt.create ());
        e2e = Rtt.create ();
        retransmits = 0;
        retransmit_bytes = 0;
        acks = 0;
        dups_suppressed = 0;
        pruned = 0;
        fenced = 0;
        crash_wiped = 0;
        corrupt_dropped = Array.make nnodes 0;
      }
    in
    l.reliable <- Some s;
    s

(* --- the perfect-network path ------------------------------------------- *)

let plain_send engine ~src ~dst ~bytes handler a b payload =
  let m = Engine.machine engine in
  let cau = causal engine in
  let cparent =
    match cau with Some c -> Dpa_obs.Causal.current c | None -> -1
  in
  let sent_at = src.Node.clock in
  let src_id = src.Node.id in
  let arrival = injected_arrival engine m ~src ~dst ~bytes in
  let fid =
    match cau with
    | Some c ->
      record_flight engine c ~cparent ~attempt:1 ~src:src_id ~dst ~inc:0
        ~sent:sent_at ~at:arrival ()
    | None -> -1
  in
  let s = (layer engine).slab in
  if s.nfree = 0 then grow engine s;
  s.nfree <- s.nfree - 1;
  let i = s.free.(s.nfree) in
  s.dst.(i) <- dst;
  s.bytes.(i) <- bytes;
  s.fid.(i) <- fid;
  s.handler.(i) <- handler;
  s.a.(i) <- a;
  s.b.(i) <- b;
  s.payload.(i) <- payload;
  Engine.post engine ~time:arrival ~node:dst s.action.(i)

(* --- reliable delivery over a faulty network ----------------------------- *)

(* When a fault plan is installed, every [send] becomes a sequence-numbered
   envelope: the receiver acknowledges each copy it extracts and runs the
   handler only for the first (per-sequence dedup), while the sender keeps
   the envelope in a retransmit buffer armed with a timeout that backs off
   exponentially (capped) until the ack lands. Acks themselves cross the
   faulty network unprotected — a lost ack just costs one spurious
   retransmission, which the dedup absorbs. The result is exactly-once
   handler execution on any network the plan can express (drop < 1). *)

let seen_entries s =
  Array.fold_left (fun acc tbl -> acc + Hashtbl.length tbl) 0 s.seen

let corrupt_total (s : state) = Array.fold_left ( + ) 0 s.corrupt_dropped

let stats engine =
  match reliable engine with
  | Some s ->
    Some
      {
        in_flight = Hashtbl.length s.pending;
        retransmits = s.retransmits;
        retransmit_bytes = s.retransmit_bytes;
        acks = s.acks;
        dups_suppressed = s.dups_suppressed;
        seen_entries = seen_entries s;
        pruned = s.pruned;
        fenced = s.fenced;
        crash_wiped = s.crash_wiped;
        corrupt_dropped = corrupt_total s;
      }
  | None -> None

let corrupt_dropped_per_node engine =
  match reliable engine with
  | Some s -> Array.copy s.corrupt_dropped
  | None -> [||]

let in_flight engine =
  match reliable engine with
  | Some s -> Hashtbl.length s.pending
  | None -> 0

(* Reclaim the receiver dedup tables. Safe only at a quiescent point: with
   the event queue drained every delivered copy (duplicates included) has
   run, and with no unacked envelope no sequence number can ever be
   retransmitted — so no future arrival can match a pruned entry. Called
   by the runtimes at their phase barrier; without it a long multi-phase
   chaos run leaks one entry per envelope ever sent. *)
let prune_seen engine =
  match reliable engine with
  | Some s ->
    if not (Engine.idle engine) then
      invalid_arg "Am.prune_seen: event queue not drained";
    if Hashtbl.length s.pending > 0 then
      invalid_arg "Am.prune_seen: unacknowledged envelopes in flight";
    let n = seen_entries s in
    Array.iter Hashtbl.reset s.seen;
    s.pruned <- s.pruned + n;
    n
  | None -> 0

let link_rtt engine ~src ~dst =
  match reliable engine with
  | Some s ->
    let est = s.rtt.((src * s.nnodes) + dst) in
    if Rtt.samples est = 0 then None else Some est
  | None -> None

(* Scale factor for the end-to-end wheel: a request conversation is two
   reliable deliveries (the aggregated request out, the bulk reply back)
   plus owner service time, each delivery itself subject to recovery. *)
let e2e_rto engine ~fallback =
  match reliable engine with
  | Some s when Rtt.samples s.e2e > 0 ->
    max fallback (2 * Rtt.estimate_ns s.e2e)
  | _ -> fallback

(* Retransmission policy. The initial timeout covers a fault-free round
   trip — injection overheads, the payload out, a header-only NIC ack back
   — plus several poll quanta of slack for injected delay/jitter and link
   occupancy under [ingress_serialized]. Each miss doubles the timeout up
   to [rto_cap]; a premature timeout only costs a duplicate that the dedup
   table absorbs. The generous cap lets the horizon stretch over an
   entire NIC outage window without burning through [max_attempts]. *)
let initial_rto (m : Machine.t) ~bytes =
  (2 * (m.send_overhead_ns + m.recv_overhead_ns))
  + Machine.transfer_ns m ~bytes
  + Machine.transfer_ns m ~bytes:m.msg_header_bytes
  + (4 * m.poll_quantum_ns)

let rto_cap m ~bytes = 1024 * initial_rto m ~bytes

(* Adaptive transport timeout (Machine.adaptive_rto): the Jacobson–Karels
   estimate for this (src, dst) link plus this message's own serialization
   time — samples mix message sizes, so the explicit transfer term keeps a
   large bulk reply from being timed against an estimate learned on small
   requests. Falls back to the constant worst-case formula until the first
   sample. Retransmitted envelopes never feed the estimator (Karn's
   algorithm: an ack after a retransmission is ambiguous), and the result
   is floored at the smallest round trip ever measured on the link. *)
let rto_for (st : state) (m : Machine.t) ~src ~dst ~bytes =
  let fallback = initial_rto m ~bytes in
  if not m.Machine.adaptive_rto then fallback
  else
    let est = st.rtt.((src * st.nnodes) + dst) in
    if Rtt.samples est = 0 then fallback
    else Rtt.rto_ns est ~fallback + Machine.transfer_ns m ~bytes

(* Far beyond anything a drop rate < 1 will produce; a plan that eats this
   many attempts is a configuration error, not bad luck. *)
let max_attempts = 64

(* Checksum fencing (DESIGN.md §13): materialize one copy's frame, seal it
   at wire-out, and let the fault plan flip a bit; [true] iff the frame
   then fails CRC verification — the NIC's cue to count and drop the copy
   with no ack and no handler. With the corruption class off no frame is
   ever built, so those runs replay bit-identically to a build without the
   integrity layer. CRC-32 catches every single-bit flip, so a drawn
   corruption is always detected (the test suite holds this exhaustively);
   the [verify] of a clean copy models the always-on NIC check. *)
let copy_corrupted f ~src ~dst ~seq ~inc ~bytes =
  Fault.corruption_enabled f
  && begin
       let fr = Wire.frame ~src ~dst ~seq ~inc ~bytes in
       Wire.seal fr;
       (match Fault.corrupt_copy f with
       | None -> ()
       | Some r -> Wire.flip_bit fr r);
       not (Wire.verify fr)
     end

(* An instant, then its int args with [obs_int]: each a no-op without a
   sink. *)
let obs_instant engine ~cat ~name ~node ~ts =
  match Engine.sink engine with
  | None -> ()
  | Some sink -> Dpa_obs.Sink.instant sink ~cat ~name ~node ~ts

let obs_int engine key v =
  match Engine.sink engine with
  | None -> ()
  | Some sink -> Dpa_obs.Sink.int sink key v

let obs_count engine name n =
  match Engine.sink engine with
  | None -> ()
  | Some sink ->
    Dpa_obs.Metrics.add (Dpa_obs.Metrics.counter (Dpa_obs.Sink.metrics sink) name) n

let obs_observe engine name v =
  match Engine.sink engine with
  | None -> ()
  | Some sink ->
    Dpa_obs.Metrics.observe
      (Dpa_obs.Metrics.histogram (Dpa_obs.Sink.metrics sink) name)
      v

(* Corruption marker: a zero-duration, path-ineligible DAG node hanging
   off the corrupted copy's flight (the ack pattern), so refetch and
   retransmit chains in the critical-path report stay exact while the
   corruption still shows as an explicit happens-before vertex. Returns
   the marker's id, -1 with tracing off. *)
let corrupt_marker engine ~kind ~fid ~ts =
  match causal engine with
  | None -> -1
  | Some c ->
    let id = Dpa_obs.Causal.fresh c in
    Dpa_obs.Causal.node ~seg:Dpa_obs.Causal.Wire ~on_path:false c ~id ~ts
      ~dur:0;
    if fid >= 0 then Dpa_obs.Causal.edge c ~kind ~parent:fid ~child:id;
    id

let note_corrupt engine (st : state) ~node ~src ~bytes ~ts ~id ~fid =
  st.corrupt_dropped.(node) <- st.corrupt_dropped.(node) + 1;
  obs_count engine "am.corrupt_dropped" 1;
  obs_instant engine ~cat:"fault" ~name:"corrupt" ~node ~ts;
  obs_int engine "src" src;
  obs_int engine "bytes" bytes;
  if id >= 0 then begin
    obs_int engine "span_id" id;
    if fid >= 0 then obs_int engine "parent" fid
  end

(* One physical transmission attempt through the fault plan: charges the
   sender, occupies the links, then posts zero, one or two delivery events
   according to the verdict. [deliver] runs after the receiver's extraction
   overhead has been charged, once per surviving copy; it also receives the
   copy's wire-arrival time [at], which can lag far behind the receiver's
   clock on a backlogged node.

   Incarnation fencing: the envelope is stamped with the destination's
   incarnation as seen at this transmission. If the destination has
   crash-restarted by the time a copy arrives, the copy is addressed to a
   dead incarnation — the NIC counts its bytes but sends no ack and runs no
   handler. The sender's retransmission re-stamps at the next attempt, so
   the first attempt after the restart goes through; stale replies and
   requests can never act on the new incarnation's state. *)
let transmit engine f ~(src : Node.t) ~dst ~bytes ~seq ~cparent ~attempt
    deliver =
  let m = Engine.machine engine in
  let sent_at = src.Node.clock in
  let src_id = src.Node.id in
  let dst_inc = (Engine.node engine dst).Node.incarnation in
  let cau = causal engine in
  let arrival = injected_arrival engine m ~src ~dst ~bytes in
  match
    Fault.judge f ~now:sent_at ~arrival ~src:src_id ~dst
      ~transfer_ns:(Machine.transfer_ns m ~bytes)
  with
  | Fault.Drop ->
    obs_count engine "fault.drops" 1;
    obs_instant engine ~cat:"fault" ~name:"drop" ~node:src_id ~ts:sent_at;
    obs_int engine "dst" dst;
    obs_int engine "bytes" bytes
  | Fault.Outage ->
    obs_count engine "fault.outage_drops" 1;
    obs_instant engine ~cat:"fault" ~name:"outage" ~node:src_id ~ts:sent_at;
    obs_int engine "dst" dst;
    obs_int engine "bytes" bytes
  | Fault.Deliver delays ->
    (match delays with
    | _ :: _ :: _ ->
      obs_count engine "fault.dups" 1;
      obs_instant engine ~cat:"fault" ~name:"dup" ~node:src_id ~ts:sent_at;
      obs_int engine "dst" dst
    | _ -> ());
    List.iter
      (fun extra ->
        let at = arrival + extra in
        (* Corruption is drawn here, at wire-out of the copy, not inside
           the delivery event: transmission order is the deterministic
           order, so the corruption stream stays independent of how the
           event queue interleaves deliveries. *)
        let corrupted =
          copy_corrupted f ~src:src_id ~dst ~seq ~inc:dst_inc ~bytes
        in
        (* One flight node per surviving copy — a duplicated envelope is
           two wire traversals, each a possible handler parent. Dropped
           attempts record nothing: the timeout wait they cause shows up
           as the gap on the Retry edge into the next attempt's flight. *)
        let fid =
          match cau with
          | Some c ->
            record_flight engine c ~cparent ~attempt ~src:src_id ~dst ~seq
              ~inc:dst_inc ~sent:sent_at ~at ()
          | None -> -1
        in
        Engine.post engine ~time:at ~node:dst (fun () ->
            let d = Engine.node engine dst in
            if corrupted then begin
              (* The frame failed its CRC at the destination NIC: the wire
                 carried the bytes, but the copy is fenced before software
                 extraction — no recv overhead, no ack, no handler. The
                 sender's retransmission timer recovers it as a loss. *)
              d.Node.msgs_recv <- d.Node.msgs_recv + 1;
              d.Node.bytes_recv <- d.Node.bytes_recv + bytes;
              let st = state engine in
              let id =
                corrupt_marker engine ~kind:Dpa_obs.Causal.Deliver ~fid ~ts:at
              in
              note_corrupt engine st ~node:dst ~src:src_id ~bytes ~ts:at ~id
                ~fid
            end
            else if d.Node.incarnation <> dst_inc then begin
              (* Addressed to a pre-crash incarnation: the wire carried it,
                 but the NIC rejects it before software extraction — no
                 recv overhead, no ack, no handler. *)
              d.Node.msgs_recv <- d.Node.msgs_recv + 1;
              d.Node.bytes_recv <- d.Node.bytes_recv + bytes;
              let st = state engine in
              st.fenced <- st.fenced + 1;
              obs_count engine "am.fenced" 1;
              obs_instant engine ~cat:"fault" ~name:"fenced" ~node:dst ~ts:at;
              obs_int engine "src" src_id;
              obs_int engine "bytes" bytes
            end
            else begin
              Node.charge_comm d m.Machine.recv_overhead_ns;
              d.Node.msgs_recv <- d.Node.msgs_recv + 1;
              d.Node.bytes_recv <- d.Node.bytes_recv + bytes;
              match cau with
              | Some c ->
                Dpa_obs.Causal.with_current c fid (fun () -> deliver ~at ~fid d)
              | None -> deliver ~at ~fid d
            end))
      delays

let reliable_send engine f ~(src : Node.t) ~dst ~bytes handler =
  let st = state engine in
  let m = Engine.machine engine in
  let seq = st.next_seq in
  st.next_seq <- seq + 1;
  let src_id = src.Node.id in
  let p =
    {
      p_src = src_id;
      p_first_sent = src.Node.clock;
      p_attempts = 0;
      p_budget = 0;
      p_inc = (Engine.node engine dst).Node.incarnation;
      p_incs_seen = 1;
      p_rto_ns = rto_for st m ~src:src_id ~dst ~bytes;
      p_causal =
        (match causal engine with
        | Some c -> Dpa_obs.Causal.current c
        | None -> -1);
    }
  in
  Hashtbl.replace st.pending seq p;
  let rec attempt () =
    let src = Engine.node engine src_id in
    let dst_inc = (Engine.node engine dst).Node.incarnation in
    if dst_inc <> p.p_inc then begin
      (* The destination crash-restarted since the last attempt: every
         attempt so far was (or may have been) spent on a dead
         incarnation's wire silence, not on plan hostility. The budget
         restarts with the incarnation; a recoverable-but-hostile plan
         gets a full [max_attempts] against the incarnation that can
         actually answer. *)
      p.p_inc <- dst_inc;
      p.p_incs_seen <- p.p_incs_seen + 1;
      p.p_budget <- 0
    end;
    p.p_attempts <- p.p_attempts + 1;
    p.p_budget <- p.p_budget + 1;
    if p.p_budget > max_attempts then begin
      let now = src.Node.clock in
      let window =
        List.find_opt
          (fun (c, r) -> c <= now && now < r)
          (Fault.crash_windows f ~node:dst)
      in
      failwith
        (Printf.sprintf
           "Am: message %d -> %d undeliverable after %d attempts against \
            destination incarnation %d (%d attempts total across %d \
            incarnation(s)%s; fault plan too hostile?)"
           src_id dst max_attempts dst_inc p.p_attempts p.p_incs_seen
           (match window with
           | Some (c, r) ->
             Printf.sprintf ", destination down in window [%d, %d)" c r
           | None -> ""))
    end;
    if p.p_attempts > 1 then begin
      st.retransmits <- st.retransmits + 1;
      st.retransmit_bytes <- st.retransmit_bytes + bytes;
      obs_count engine "am.retransmits" 1;
      obs_count engine "am.retransmit_bytes" bytes;
      obs_instant engine ~cat:"fault" ~name:"retry" ~node:src_id
        ~ts:src.Node.clock;
      obs_int engine "seq" seq;
      obs_int engine "attempt" p.p_attempts;
      obs_int engine "dst" dst
    end;
    transmit engine f ~src ~dst ~bytes ~seq ~cparent:p.p_causal
      ~attempt:p.p_attempts on_deliver;
    (* Arm the timeout. Soft event: if the ack beats the deadline this is
       a pure no-op that leaves the sender's clock untouched. *)
    obs_observe engine "am.rto_ns" p.p_rto_ns;
    let deadline = src.Node.clock + p.p_rto_ns in
    p.p_rto_ns <- min (2 * p.p_rto_ns) (rto_cap m ~bytes);
    Engine.post_soft engine ~time:deadline ~node:src_id (fun () ->
        if Hashtbl.mem st.pending seq then begin
          let src = Engine.node engine src_id in
          Node.wait_until src deadline;
          obs_instant engine ~cat:"fault" ~name:"timeout" ~node:src_id
            ~ts:src.Node.clock;
          obs_int engine "seq" seq;
          obs_int engine "dst" dst;
          attempt ()
        end)
  and on_deliver ~at ~fid d =
    let dup = Hashtbl.mem st.seen.(dst) seq in
    if dup then begin
      st.dups_suppressed <- st.dups_suppressed + 1;
      obs_count engine "am.dups_suppressed" 1
    end
    else Hashtbl.replace st.seen.(dst) seq ();
    (* Ack every arriving copy — the sender may have missed an earlier
       ack — then run the handler exactly once. *)
    send_ack ~at ~fid d;
    if not dup then handler d
  and send_ack ~at ~fid (d : Node.t) =
    (* NIC-level ack: generated at the wire the moment the copy arrives
       ([at]), not when the receiver's software gets around to it. A
       backlogged owner's clock can run whole seconds ahead of message
       arrivals; timestamping acks off that clock makes every envelope to
       it look lost and feeds a retransmission storm that only deepens the
       backlog. The ack still crosses the faulty network (it can be
       dropped or duplicated, and its bytes count on both NICs), but it
       charges no node clock — completion bookkeeping is free, like the
       timers. *)
    st.acks <- st.acks + 1;
    let ack_bytes = m.Machine.msg_header_bytes in
    d.Node.msgs_sent <- d.Node.msgs_sent + 1;
    d.Node.bytes_sent <- d.Node.bytes_sent + ack_bytes;
    let arrival = at + Machine.transfer_ns m ~bytes:ack_bytes in
    match
      Fault.judge f ~now:at ~arrival ~src:d.Node.id ~dst:src_id
        ~transfer_ns:(Machine.transfer_ns m ~bytes:ack_bytes)
    with
    | Fault.Drop ->
      obs_count engine "fault.drops" 1;
      obs_instant engine ~cat:"fault" ~name:"drop" ~node:d.Node.id ~ts:at;
      obs_int engine "dst" src_id;
      obs_int engine "bytes" ack_bytes
    | Fault.Outage ->
      obs_count engine "fault.outage_drops" 1;
      obs_instant engine ~cat:"fault" ~name:"outage" ~node:d.Node.id ~ts:at;
      obs_int engine "dst" src_id;
      obs_int engine "bytes" ack_bytes
    | Fault.Deliver delays ->
      List.iter
        (fun extra ->
          (* Acks get the same checksum fence as data: a corrupted ack is
             counted and discarded at the sender's NIC, the envelope stays
             pending, and a later duplicate ack (or a spurious retransmit
             absorbed by the dedup) completes it. The ack frame reuses the
             data sequence number; acks carry no incarnation. *)
          let ack_corrupt =
            copy_corrupted f ~src:d.Node.id ~dst:src_id ~seq ~inc:0
              ~bytes:ack_bytes
          in
          (* Ack flights join the DAG (leaf nodes off the delivered copy)
             but are path-ineligible: they advance no node clock, so a
             late ack must not become the path tail. *)
          (match causal engine with
          | Some c ->
            let aid = Dpa_obs.Causal.fresh c in
            Dpa_obs.Causal.node ~seg:Dpa_obs.Causal.Wire ~on_path:false c
              ~id:aid ~ts:at ~dur:(arrival + extra - at);
            Dpa_obs.Causal.edge c ~kind:Dpa_obs.Causal.Ack ~parent:fid
              ~child:aid
          | None -> ());
          Engine.post_soft engine ~time:(arrival + extra) ~node:src_id
            (fun () ->
              let s = Engine.node engine src_id in
              s.Node.msgs_recv <- s.Node.msgs_recv + 1;
              s.Node.bytes_recv <- s.Node.bytes_recv + ack_bytes;
              if ack_corrupt then begin
                let id =
                  corrupt_marker engine ~kind:Dpa_obs.Causal.Ack ~fid
                    ~ts:(arrival + extra)
                in
                note_corrupt engine st ~node:src_id ~src:d.Node.id
                  ~bytes:ack_bytes ~ts:(arrival + extra) ~id ~fid
              end
              else if Hashtbl.mem st.pending seq then begin
                Hashtbl.remove st.pending seq;
                let latency = (arrival + extra) - p.p_first_sent in
                (* Full delivery latency, recovery included, feeds the
                   end-to-end estimator; the per-link ack-RTT estimator
                   only takes unambiguous samples (Karn: a single
                   transmission, so the ack can only belong to it). *)
                Rtt.observe st.e2e latency;
                if p.p_attempts = 1 then
                  Rtt.observe st.rtt.((src_id * st.nnodes) + dst) latency;
                if p.p_attempts > 1 then
                  obs_observe engine "am.recovery_ns" latency
              end))
        delays
  in
  attempt ()

(* Execute the transport side of a node crash: the volatile messaging
   state tied to [node] is destroyed. Its retransmit buffer vanishes
   (envelopes it originated are never re-sent — the application layer must
   re-issue what still matters), its receiver dedup table is forgotten
   (retransmissions of pre-crash envelopes re-run handlers at most once
   per new incarnation, and only for conversations the sender still keeps,
   which re-stamp and stay exactly-once within the incarnation), and the
   RTT filters of every link touching the node re-converge from scratch.
   The engine-wide e2e filter is deliberately kept: recovery latencies are
   exactly what the end-to-end retry wheel should be learning. *)
let on_crash engine ~node =
  match reliable engine with
  | Some s ->
    let dead =
      Hashtbl.fold
        (fun seq p acc -> if p.p_src = node then seq :: acc else acc)
        s.pending []
    in
    List.iter (Hashtbl.remove s.pending) dead;
    let n = List.length dead in
    s.crash_wiped <- s.crash_wiped + n;
    Hashtbl.reset s.seen.(node);
    for peer = 0 to s.nnodes - 1 do
      Rtt.reset s.rtt.((node * s.nnodes) + peer);
      Rtt.reset s.rtt.((peer * s.nnodes) + node)
    done;
    obs_count engine "am.crash_wiped" n;
    n
  | None -> 0

let check_header engine ~(src : Node.t) ~dst ~bytes =
  let header = (Engine.machine engine).Machine.msg_header_bytes in
  if bytes < header then
    invalid_arg
      (Printf.sprintf
         "Am.send: message from node %d to node %d is %d bytes, smaller than \
          the %d-byte header"
         src.Node.id dst bytes header)

let send_data engine ~src ~dst ~bytes handler a b payload =
  check_header engine ~src ~dst ~bytes;
  match Engine.fault engine with
  | None -> plain_send engine ~src ~dst ~bytes handler a b payload
  | Some f ->
    reliable_send engine f ~src ~dst ~bytes (fun d -> handler d a b payload)

let send engine ~src ~dst ~bytes handler =
  check_header engine ~src ~dst ~bytes;
  match Engine.fault engine with
  | None ->
    plain_send engine ~src ~dst ~bytes (fun d _ _ _ -> handler d) 0 0 [||]
  | Some f -> reliable_send engine f ~src ~dst ~bytes handler
