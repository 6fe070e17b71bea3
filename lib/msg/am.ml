open Dpa_sim

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
    let out_start = Int.max src.Node.clock src.Node.out_link_free_at in
    let out_done = out_start + ser in
    src.Node.out_link_free_at <- out_done;
    let d = Engine.node engine dst in
    let in_start = Int.max (out_done + m.Machine.wire_latency_ns) d.Node.link_free_at in
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
let record_flight engine c ~cparent ~attempt ~src ~dst ~seq ~inc ~sent ~at =
  let fid = Dpa_obs.Causal.fresh c in
  (* Envelope-less (perfect-network) flights pass seq -1 and use their own
     id as the flow sequence, keeping flow ids unique per conversation. *)
  let seq = if seq < 0 then fid else seq in
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

(* --- the per-engine message slab ----------------------------------------- *)

(* Messages as data. Every transmission in flight, and every envelope the
   reliable transport has not finished with, occupies one slot of a
   per-engine slab of parallel columns, and each slot owns one action,
   built when the slab grows. Sending writes the columns and posts that
   action, so with a handler built once per runtime context a message
   allocates nothing. A slot's kind says what its action does when it
   pops:

   - [plain]: a fault-free delivery; the slot is vacated as it pops,
     before the handler runs;
   - [copy]: one copy of a reliable envelope arriving at its receiver's
     NIC;
   - [ack]: one copy of a NIC ack arriving back at the sender;
   - [envelope]: an envelope's retransmit timeout. The slot holds the
     envelope's state for its whole life, its receiver's dedup flag
     included, and is vacated once the envelope is acknowledged or wiped,
     its last timeout has popped and none of its copies is still on the
     wire — by whichever of the timeout and the last copy comes last. A
     late ack checks the slot's sequence number instead.

   A copy names its envelope's slot and reads the handler, ints and
   payload there: the slot outlives every copy, so a copy delayed past
   its envelope's last timeout still finds them, and runs them at a
   receiver that crash-restarted and cleared the envelope's flag. *)
type handler = Node.t -> int -> int -> int array -> unit

let plain = 0
let copy = 1
let ack = 2
let envelope = 3

type slab = {
  mutable kind : int array;
  mutable dst : int array;  (* the node the slot's event lands on *)
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

(* The reliable transport's state. Its per-slot columns are as long as
   the slab's, created with the state and widened with the slab, so a
   fault-free engine never carries them. *)
type state = {
  mutable next_seq : int;
  nnodes : int;
  mutable in_flight : int;  (* live envelopes *)
  rtt : Rtt.t array;  (* per (src, dst) link: ack round trips, Karn-filtered *)
  e2e : Rtt.t;
      (* engine-wide first-send -> acknowledged latency, retransmission
         recovery included — the signal the runtime's end-to-end timeout
         wheel scales itself by *)
  frame : Bytes.t;  (* each corrupted copy's and ack's frame is built here *)
  mutable retransmits : int;
  mutable retransmit_bytes : int;
  mutable acks : int;
  mutable dups_suppressed : int;
  mutable pruned : int;  (* envelope slots vacated, dedup flag and all *)
  mutable fenced : int;  (* copies rejected by incarnation fencing *)
  mutable crash_wiped : int;  (* envelopes lost with their sender's crash *)
  corrupt_dropped : int array;
      (* per node: copies whose frame failed checksum verification at that
         node's NIC — kept per node so the profile's integrity table can
         show the sum-across-nodes breakdown *)
  (* Per slot. Envelope and ack slots use [seq]; the rest as noted. *)
  mutable seq : int array;
  mutable src : int array;  (* envelope: the sender; ack: the acker *)
  mutable env : int array;  (* copy, ack: the envelope's slot *)
  mutable at : int array;
      (* copy, ack: wire arrival time; envelope: the armed deadline, -1
         once its last timeout has popped *)
  mutable inc : int array;
      (* copy: the destination incarnation it was stamped with; envelope:
         the destination incarnation at the last attempt *)
  mutable corrupt : bool array;  (* copy, ack: the frame failed its CRC *)
  mutable live : bool array;  (* envelope: not yet acknowledged or wiped *)
  mutable delivered : bool array;
      (* envelope: a copy has run the handler at the receiver's current
         incarnation — the receiver's dedup state *)
  mutable copies : int array;
      (* envelope: its copies still on the wire; 0 on every other slot,
         since an envelope's slot is only vacated at 0 *)
  mutable first_sent : int array;  (* for the recovery-latency histogram *)
  mutable attempts : int array;
  mutable budget : int array;
      (* attempts burned against the CURRENT destination incarnation —
         reset whenever the destination crash-restarts, so copies fenced
         into a dead incarnation's wire silence never count toward the
         hard [max_attempts] verdict. [attempts] stays monotone: it feeds
         Karn filtering and the Retransmit causal segment, which care
         about physical transmissions, not budget. *)
  mutable rto : int array;
  mutable incs_seen : int array;  (* distinct destination incarnations tried *)
  mutable cparent : int array;
      (* causal parent stamped at wire-out of the FIRST attempt (-1 when
         tracing is off). Retransmissions re-read this, never the cursor —
         the timeout handler runs outside any activity, and causally the
         retry still stems from whatever first sent the envelope. *)
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

(* The engine's extension slot holds the slab, and the reliable-delivery
   state once a send under a fault plan has created it. *)
type layer = { slab : slab; mutable reliable : state option }

type Engine.ext += Layer of layer

let no_handler : handler = fun _ _ _ _ -> ()

let widen col cap ncap fill =
  let c = Array.make ncap fill in
  Array.blit col 0 c 0 cap;
  c

(* Bring the state's per-slot columns up to [ncap] slots. *)
let widen_state (st : state) ncap =
  let cap = Array.length st.seq in
  if cap < ncap then begin
    st.seq <- widen st.seq cap ncap (-1);
    st.src <- widen st.src cap ncap 0;
    st.env <- widen st.env cap ncap 0;
    st.at <- widen st.at cap ncap 0;
    st.inc <- widen st.inc cap ncap 0;
    st.corrupt <- widen st.corrupt cap ncap false;
    st.live <- widen st.live cap ncap false;
    st.delivered <- widen st.delivered cap ncap false;
    st.copies <- widen st.copies cap ncap 0;
    st.first_sent <- widen st.first_sent cap ncap 0;
    st.attempts <- widen st.attempts cap ncap 0;
    st.budget <- widen st.budget cap ncap 0;
    st.rto <- widen st.rto cap ncap 0;
    st.incs_seen <- widen st.incs_seen cap ncap 0;
    st.cparent <- widen st.cparent cap ncap (-1)
  end

let layer engine =
  match Engine.ext engine with
  | Some (Layer l) -> l
  | _ ->
    let l =
      {
        slab =
          {
            kind = [||];
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
        in_flight = 0;
        rtt = Array.init (nnodes * nnodes) (fun _ -> Rtt.create ());
        e2e = Rtt.create ();
        frame = Bytes.create Wire.max_frame_len;
        retransmits = 0;
        retransmit_bytes = 0;
        acks = 0;
        dups_suppressed = 0;
        pruned = 0;
        fenced = 0;
        crash_wiped = 0;
        corrupt_dropped = Array.make nnodes 0;
        seq = [||];
        src = [||];
        env = [||];
        at = [||];
        inc = [||];
        corrupt = [||];
        live = [||];
        delivered = [||];
        copies = [||];
        first_sent = [||];
        attempts = [||];
        budget = [||];
        rto = [||];
        incs_seen = [||];
        cparent = [||];
      }
    in
    widen_state s (Array.length l.slab.dst);
    l.reliable <- Some s;
    s

(* Vacate a slot. It keeps neither its handler's context nor its array. *)
let release s i =
  s.handler.(i) <- no_handler;
  s.payload.(i) <- [||];
  s.free.(s.nfree) <- i;
  s.nfree <- s.nfree + 1

(* Vacate envelope [e] once nothing can refer to it: it is acknowledged
   or wiped, its last timeout has popped and no copy is on the wire. *)
let settle s (st : state) e =
  if (not st.live.(e)) && st.at.(e) < 0 && st.copies.(e) = 0 then begin
    st.pruned <- st.pruned + 1;
    release s e
  end

(* Run a message's handler on [d], inside flight [fid] when tracing. *)
let run_handler engine ~fid h d a b payload =
  match causal engine with
  | Some c when fid >= 0 ->
    Dpa_obs.Causal.with_current c fid (fun () -> h d a b payload)
  | _ -> h d a b payload

(* A fault-free delivery. *)
let deliver engine s i =
  let dst = s.dst.(i)
  and bytes = s.bytes.(i)
  and fid = s.fid.(i)
  and h = s.handler.(i)
  and a = s.a.(i)
  and b = s.b.(i)
  and payload = s.payload.(i) in
  release s i;
  let d = Engine.node engine dst in
  Node.charge_comm d (Engine.machine engine).Machine.recv_overhead_ns;
  d.Node.msgs_recv <- d.Node.msgs_recv + 1;
  d.Node.bytes_recv <- d.Node.bytes_recv + bytes;
  run_handler engine ~fid h d a b payload

(* --- accounting and observation ------------------------------------------- *)

let corrupt_total (s : state) = Array.fold_left ( + ) 0 s.corrupt_dropped

let stats engine =
  match reliable engine with
  | Some s ->
    Some
      {
        in_flight = s.in_flight;
        retransmits = s.retransmits;
        retransmit_bytes = s.retransmit_bytes;
        acks = s.acks;
        dups_suppressed = s.dups_suppressed;
        seen_entries = s.next_seq - s.pruned;
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
  match reliable engine with Some s -> s.in_flight | None -> 0

let prune_seen _ = 0

let certify_barrier engine ~caller =
  match reliable engine with
  | Some s ->
    if s.in_flight > 0 then
      failwith
        (Printf.sprintf "%s: %d unacknowledged messages at barrier" caller
           s.in_flight);
    if s.next_seq > s.pruned then
      failwith
        (Printf.sprintf "%s: %d envelope slots still held at barrier" caller
           (s.next_seq - s.pruned))
  | None -> ()

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
    Int.max fallback (2 * Rtt.estimate_ns s.e2e)
  | _ -> fallback

(* Retransmission policy. The initial timeout covers a fault-free round
   trip — injection overheads, the payload out, a header-only NIC ack back
   — plus several poll quanta of slack for injected delay/jitter and link
   occupancy under [ingress_serialized]. Each miss doubles the timeout up
   to [rto_cap]; a premature timeout only costs a duplicate that the dedup
   flag absorbs. The generous cap lets the horizon stretch over an
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

(* Checksum fencing (DESIGN.md §13): draw the plan's corruption verdict
   for one copy; [true] iff its frame fails CRC verification — the NIC's
   cue to count and drop the copy with no ack and no handler. Only a drawn
   copy is framed into the scratch buffer, sealed at wire-out, flipped and
   verified: a clean copy's sealed frame always verifies (the test suite
   holds this for random headers), so its verdict is [false] without
   building one. With the corruption class off nothing is drawn and no
   frame is ever built, so those runs replay bit-identically to a build
   without the integrity layer. CRC-32 catches every single-bit flip, so
   a drawn corruption is always detected (the test suite holds this
   exhaustively). *)
let copy_corrupted f (st : state) ~src ~dst ~seq ~inc ~bytes =
  match Fault.corrupt_copy f with
  | None -> false
  | Some r ->
    let fr = st.frame in
    let len = Wire.frame_into fr ~src ~dst ~seq ~inc ~bytes in
    Wire.seal_prefix fr ~len;
    Wire.flip_bit_prefix fr ~len r;
    not (Wire.verify_prefix fr ~len)

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

(* A transmission the plan did not deliver. *)
let note_lost engine (verdict : Fault.verdict) ~node ~ts ~dst ~bytes =
  (match verdict with
  | Fault.Outage ->
    obs_count engine "fault.outage_drops" 1;
    obs_instant engine ~cat:"fault" ~name:"outage" ~node ~ts
  | _ ->
    obs_count engine "fault.drops" 1;
    obs_instant engine ~cat:"fault" ~name:"drop" ~node ~ts);
  obs_int engine "dst" dst;
  obs_int engine "bytes" bytes

(* --- slots and their actions ------------------------------------------------ *)

(* Pop a vacant slot, doubling every column (the reliable state's too)
   when none is left; new slots stack lowest on top. *)
let rec take_slot engine l =
  let s = l.slab in
  if s.nfree = 0 then begin
    let cap = Array.length s.dst in
    let ncap = max 64 (2 * cap) in
    s.kind <- widen s.kind cap ncap plain;
    s.dst <- widen s.dst cap ncap 0;
    s.bytes <- widen s.bytes cap ncap 0;
    s.fid <- widen s.fid cap ncap (-1);
    s.handler <- widen s.handler cap ncap no_handler;
    s.a <- widen s.a cap ncap 0;
    s.b <- widen s.b cap ncap 0;
    s.payload <- widen s.payload cap ncap [||];
    s.action <- widen s.action cap ncap ignore;
    for i = cap to ncap - 1 do
      s.action.(i) <- (fun () -> fire engine l i)
    done;
    s.free <- Array.make ncap 0;
    for i = ncap - 1 downto cap do
      s.free.(s.nfree) <- i;
      s.nfree <- s.nfree + 1
    done;
    match l.reliable with Some st -> widen_state st ncap | None -> ()
  end;
  s.nfree <- s.nfree - 1;
  s.free.(s.nfree)

and fire engine l i =
  let s = l.slab in
  let k = s.kind.(i) in
  if k = plain then deliver engine s i
  else
    match (l.reliable, Engine.fault engine) with
    | Some st, Some f ->
      if k = copy then copy_arrives engine f l st i
      else if k = ack then ack_arrives engine l st i
      else timeout engine f l st i
    | _ -> invalid_arg "Am: reliable slot without a fault plan"

(* --- reliable delivery over a faulty network ------------------------------- *)

(* When a fault plan is installed, every [send] becomes a sequence-numbered
   envelope: the receiver acknowledges each copy it extracts and runs the
   handler only for the first (the envelope's dedup flag), while the
   sender keeps the envelope in a retransmit buffer armed with a timeout
   that backs off exponentially (capped) until the ack lands. Acks
   themselves cross the faulty network unprotected — a lost ack just
   costs one spurious retransmission, which the dedup flag absorbs. The
   result is exactly-once handler execution on any network the plan can
   express (drop < 1). *)

(* One physical transmission attempt of envelope [e] through the fault
   plan: charges the sender, occupies the links, then posts zero, one or
   two copies according to the verdict. Each copy's slot names the
   envelope and carries the copy's wire-arrival time, which can lag far
   behind the receiver's clock on a backlogged node.

   Incarnation fencing: the copy is stamped with the destination's
   incarnation as seen at this transmission. If the destination has
   crash-restarted by the time a copy arrives, the copy is addressed to a
   dead incarnation — the NIC counts its bytes but sends no ack and runs no
   handler. The sender's retransmission re-stamps at the next attempt, so
   the first attempt after the restart goes through; stale replies and
   requests can never act on the new incarnation's state. *)
and transmit engine f l st (src : Node.t) e =
  let s = l.slab in
  let m = Engine.machine engine in
  let dst = s.dst.(e) and bytes = s.bytes.(e) and seq = st.seq.(e) in
  let sent_at = src.Node.clock in
  let src_id = src.Node.id in
  let dst_inc = (Engine.node engine dst).Node.incarnation in
  let arrival = injected_arrival engine m ~src ~dst ~bytes in
  match
    Fault.judge f ~now:sent_at ~arrival ~src:src_id ~dst
      ~transfer_ns:(Machine.transfer_ns m ~bytes)
  with
  | (Fault.Drop | Fault.Outage) as v ->
    note_lost engine v ~node:src_id ~ts:sent_at ~dst ~bytes
  | Fault.Deliver ->
    let n = Fault.copies f in
    let extra0 = Fault.extra f 0 in
    let extra1 = if n > 1 then Fault.extra f 1 else 0 in
    if n > 1 then begin
      obs_count engine "fault.dups" 1;
      obs_instant engine ~cat:"fault" ~name:"dup" ~node:src_id ~ts:sent_at;
      obs_int engine "dst" dst
    end;
    for k = 0 to n - 1 do
      let at = arrival + if k = 0 then extra0 else extra1 in
      (* Corruption is drawn here, at wire-out of the copy, not inside
         the delivery event: transmission order is the deterministic
         order, so the corruption stream stays independent of how the
         event queue interleaves deliveries. *)
      let corrupted =
        copy_corrupted f st ~src:src_id ~dst ~seq ~inc:dst_inc ~bytes
      in
      (* One flight node per surviving copy — a duplicated envelope is
         two wire traversals, each a possible handler parent. Dropped
         attempts record nothing: the timeout wait they cause shows up
         as the gap on the Retry edge into the next attempt's flight. *)
      let fid =
        match causal engine with
        | Some c ->
          record_flight engine c ~cparent:st.cparent.(e)
            ~attempt:st.attempts.(e) ~src:src_id ~dst ~seq ~inc:dst_inc
            ~sent:sent_at ~at
        | None -> -1
      in
      let c = take_slot engine l in
      s.kind.(c) <- copy;
      s.fid.(c) <- fid;
      st.env.(c) <- e;
      st.at.(c) <- at;
      st.inc.(c) <- dst_inc;
      st.corrupt.(c) <- corrupted;
      st.copies.(e) <- st.copies.(e) + 1;
      Engine.post engine ~kind:Engine.Work ~time:at ~node:dst s.action.(c)
    done

(* A copy reaches its receiver's NIC. Whatever its fate, it is off the
   wire, and may be the last thing holding its envelope's slot. *)
and copy_arrives engine f l st c =
  let s = l.slab in
  let e = st.env.(c) and fid = s.fid.(c) and at = st.at.(c) in
  let inc = st.inc.(c) and corrupted = st.corrupt.(c) in
  release s c;
  let dst = s.dst.(e) and bytes = s.bytes.(e) and src_id = st.src.(e) in
  st.copies.(e) <- st.copies.(e) - 1;
  let d = Engine.node engine dst in
  if corrupted then begin
    (* The frame failed its CRC at the destination NIC: the wire carried
       the bytes, but the copy is fenced before software extraction — no
       recv overhead, no ack, no handler. The sender's retransmission
       timer recovers it as a loss. *)
    settle s st e;
    d.Node.msgs_recv <- d.Node.msgs_recv + 1;
    d.Node.bytes_recv <- d.Node.bytes_recv + bytes;
    let id = corrupt_marker engine ~kind:Dpa_obs.Causal.Deliver ~fid ~ts:at in
    note_corrupt engine st ~node:dst ~src:src_id ~bytes ~ts:at ~id ~fid
  end
  else if d.Node.incarnation <> inc then begin
    (* Addressed to a pre-crash incarnation: the wire carried it, but the
       NIC rejects it before software extraction — no recv overhead, no
       ack, no handler. *)
    settle s st e;
    d.Node.msgs_recv <- d.Node.msgs_recv + 1;
    d.Node.bytes_recv <- d.Node.bytes_recv + bytes;
    st.fenced <- st.fenced + 1;
    obs_count engine "am.fenced" 1;
    obs_instant engine ~cat:"fault" ~name:"fenced" ~node:dst ~ts:at;
    obs_int engine "src" src_id;
    obs_int engine "bytes" bytes
  end
  else begin
    let seq = st.seq.(e)
    and h = s.handler.(e)
    and a = s.a.(e)
    and b = s.b.(e)
    and payload = s.payload.(e)
    and dup = st.delivered.(e) in
    st.delivered.(e) <- true;
    settle s st e;
    Node.charge_comm d (Engine.machine engine).Machine.recv_overhead_ns;
    d.Node.msgs_recv <- d.Node.msgs_recv + 1;
    d.Node.bytes_recv <- d.Node.bytes_recv + bytes;
    if dup then begin
      st.dups_suppressed <- st.dups_suppressed + 1;
      obs_count engine "am.dups_suppressed" 1
    end;
    (* Ack every arriving copy — the sender may have missed an earlier
       ack — then run the handler exactly once. *)
    send_ack engine f l st ~at ~fid d ~sender:src_id ~seq ~e;
    if not dup then run_handler engine ~fid h d a b payload
  end

(* NIC-level ack: generated at the wire the moment the copy arrives
   ([at]), not when the receiver's software gets around to it. A
   backlogged owner's clock can run whole seconds ahead of message
   arrivals; timestamping acks off that clock makes every envelope to it
   look lost and feeds a retransmission storm that only deepens the
   backlog. The ack still crosses the faulty network (it can be dropped or
   duplicated, and its bytes count on both NICs), but it charges no node
   clock — completion bookkeeping is free, like the timers. *)
and send_ack engine f l st ~at ~fid (d : Node.t) ~sender ~seq ~e =
  let s = l.slab in
  let m = Engine.machine engine in
  st.acks <- st.acks + 1;
  let ack_bytes = m.Machine.msg_header_bytes in
  d.Node.msgs_sent <- d.Node.msgs_sent + 1;
  d.Node.bytes_sent <- d.Node.bytes_sent + ack_bytes;
  let arrival = at + Machine.transfer_ns m ~bytes:ack_bytes in
  match
    Fault.judge f ~now:at ~arrival ~src:d.Node.id ~dst:sender
      ~transfer_ns:(Machine.transfer_ns m ~bytes:ack_bytes)
  with
  | (Fault.Drop | Fault.Outage) as v ->
    note_lost engine v ~node:d.Node.id ~ts:at ~dst:sender ~bytes:ack_bytes
  | Fault.Deliver ->
    let n = Fault.copies f in
    let extra0 = Fault.extra f 0 in
    let extra1 = if n > 1 then Fault.extra f 1 else 0 in
    for k = 0 to n - 1 do
      let t = arrival + if k = 0 then extra0 else extra1 in
      (* Acks get the same checksum fence as data: a corrupted ack is
         counted and discarded at the sender's NIC, the envelope stays
         pending, and a later duplicate ack (or a spurious retransmit
         absorbed by the dedup flag) completes it. The ack frame reuses the
         data sequence number; acks carry no incarnation. *)
      let corrupted =
        copy_corrupted f st ~src:d.Node.id ~dst:sender ~seq ~inc:0
          ~bytes:ack_bytes
      in
      (* Ack flights join the DAG (leaf nodes off the delivered copy) but
         are path-ineligible: they advance no node clock, so a late ack
         must not become the path tail. *)
      (match causal engine with
      | Some c ->
        let aid = Dpa_obs.Causal.fresh c in
        Dpa_obs.Causal.node ~seg:Dpa_obs.Causal.Wire ~on_path:false c ~id:aid
          ~ts:at ~dur:(t - at);
        Dpa_obs.Causal.edge c ~kind:Dpa_obs.Causal.Ack ~parent:fid ~child:aid
      | None -> ());
      let c = take_slot engine l in
      s.kind.(c) <- ack;
      s.dst.(c) <- sender;
      s.bytes.(c) <- ack_bytes;
      s.fid.(c) <- fid;
      st.seq.(c) <- seq;
      st.src.(c) <- d.Node.id;
      st.env.(c) <- e;
      st.at.(c) <- t;
      st.corrupt.(c) <- corrupted;
      Engine.post engine ~kind:Engine.Soft ~time:t ~node:sender s.action.(c)
    done

(* An ack copy reaches the sender's NIC. The envelope it names is still
   waiting iff its slot is live under the same sequence number. *)
and ack_arrives engine l st c =
  let s = l.slab in
  let sender = s.dst.(c) and ack_bytes = s.bytes.(c) and fid = s.fid.(c) in
  let seq = st.seq.(c) and e = st.env.(c) and t = st.at.(c) in
  let acker = st.src.(c) and corrupted = st.corrupt.(c) in
  release s c;
  let sn = Engine.node engine sender in
  sn.Node.msgs_recv <- sn.Node.msgs_recv + 1;
  sn.Node.bytes_recv <- sn.Node.bytes_recv + ack_bytes;
  if corrupted then begin
    let id = corrupt_marker engine ~kind:Dpa_obs.Causal.Ack ~fid ~ts:t in
    note_corrupt engine st ~node:sender ~src:acker ~bytes:ack_bytes ~ts:t ~id
      ~fid
  end
  else if st.live.(e) && st.seq.(e) = seq then begin
    st.live.(e) <- false;
    st.in_flight <- st.in_flight - 1;
    let latency = t - st.first_sent.(e) in
    (* Full delivery latency, recovery included, feeds the end-to-end
       estimator; the per-link ack-RTT estimator only takes unambiguous
       samples (Karn: a single transmission, so the ack can only belong
       to it). *)
    Rtt.observe st.e2e latency;
    if st.attempts.(e) = 1 then
      Rtt.observe st.rtt.((sender * st.nnodes) + acker) latency;
    if st.attempts.(e) > 1 then obs_observe engine "am.recovery_ns" latency
  end

(* Envelope [e]'s timeout. Soft event: if the ack beat the deadline this
   is a pure no-op that leaves the sender's clock untouched — and, the
   envelope being done, its last timeout. *)
and timeout engine f l st e =
  if st.live.(e) then begin
    let src = Engine.node engine st.src.(e) in
    Node.wait_until src st.at.(e);
    obs_instant engine ~cat:"fault" ~name:"timeout" ~node:src.Node.id
      ~ts:src.Node.clock;
    obs_int engine "seq" st.seq.(e);
    obs_int engine "dst" l.slab.dst.(e);
    attempt engine f l st e
  end
  else begin
    st.at.(e) <- -1;
    settle l.slab st e
  end

(* Transmit envelope [e] once more and arm its timeout. *)
and attempt engine f l st e =
  let s = l.slab in
  let m = Engine.machine engine in
  let src_id = st.src.(e) and dst = s.dst.(e) and bytes = s.bytes.(e) in
  let src = Engine.node engine src_id in
  let dst_inc = (Engine.node engine dst).Node.incarnation in
  if dst_inc <> st.inc.(e) then begin
    (* The destination crash-restarted since the last attempt: every
       attempt so far was (or may have been) spent on a dead
       incarnation's wire silence, not on plan hostility. The budget
       restarts with the incarnation; a recoverable-but-hostile plan gets
       a full [max_attempts] against the incarnation that can actually
       answer. *)
    st.inc.(e) <- dst_inc;
    st.incs_seen.(e) <- st.incs_seen.(e) + 1;
    st.budget.(e) <- 0
  end;
  st.attempts.(e) <- st.attempts.(e) + 1;
  st.budget.(e) <- st.budget.(e) + 1;
  if st.budget.(e) > max_attempts then begin
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
         src_id dst max_attempts dst_inc st.attempts.(e) st.incs_seen.(e)
         (match window with
         | Some (c, r) ->
           Printf.sprintf ", destination down in window [%d, %d)" c r
         | None -> ""))
  end;
  if st.attempts.(e) > 1 then begin
    st.retransmits <- st.retransmits + 1;
    st.retransmit_bytes <- st.retransmit_bytes + bytes;
    obs_count engine "am.retransmits" 1;
    obs_count engine "am.retransmit_bytes" bytes;
    obs_instant engine ~cat:"fault" ~name:"retry" ~node:src_id
      ~ts:src.Node.clock;
    obs_int engine "seq" st.seq.(e);
    obs_int engine "attempt" st.attempts.(e);
    obs_int engine "dst" dst
  end;
  transmit engine f l st src e;
  obs_observe engine "am.rto_ns" st.rto.(e);
  let deadline = src.Node.clock + st.rto.(e) in
  st.rto.(e) <- Int.min (2 * st.rto.(e)) (rto_cap m ~bytes);
  st.at.(e) <- deadline;
  Engine.post engine ~kind:Engine.Soft ~time:deadline ~node:src_id
    s.action.(e)

(* --- sending ----------------------------------------------------------------- *)

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
      record_flight engine c ~cparent ~attempt:1 ~src:src_id ~dst ~seq:(-1)
        ~inc:0 ~sent:sent_at ~at:arrival
    | None -> -1
  in
  let l = layer engine in
  let i = take_slot engine l in
  let s = l.slab in
  s.kind.(i) <- plain;
  s.dst.(i) <- dst;
  s.bytes.(i) <- bytes;
  s.fid.(i) <- fid;
  s.handler.(i) <- handler;
  s.a.(i) <- a;
  s.b.(i) <- b;
  s.payload.(i) <- payload;
  Engine.post engine ~kind:Engine.Work ~time:arrival ~node:dst s.action.(i)

(* A new envelope: its state goes into a slot, which then arms its own
   timeouts until the envelope is done. *)
let reliable_send engine f ~(src : Node.t) ~dst ~bytes handler a b payload =
  let st = state engine in
  let l = layer engine in
  let m = Engine.machine engine in
  let seq = st.next_seq in
  st.next_seq <- seq + 1;
  let src_id = src.Node.id in
  let e = take_slot engine l in
  let s = l.slab in
  s.kind.(e) <- envelope;
  s.dst.(e) <- dst;
  s.bytes.(e) <- bytes;
  s.fid.(e) <- -1;
  s.handler.(e) <- handler;
  s.a.(e) <- a;
  s.b.(e) <- b;
  s.payload.(e) <- payload;
  st.seq.(e) <- seq;
  st.src.(e) <- src_id;
  st.live.(e) <- true;
  st.delivered.(e) <- false;
  st.first_sent.(e) <- src.Node.clock;
  st.attempts.(e) <- 0;
  st.budget.(e) <- 0;
  st.inc.(e) <- (Engine.node engine dst).Node.incarnation;
  st.incs_seen.(e) <- 1;
  st.rto.(e) <- rto_for st m ~src:src_id ~dst ~bytes;
  st.cparent.(e) <-
    (match causal engine with
    | Some c -> Dpa_obs.Causal.current c
    | None -> -1);
  st.in_flight <- st.in_flight + 1;
  attempt engine f l st e

(* Execute the transport side of a node crash: the volatile messaging
   state tied to [node] is destroyed. Its retransmit buffer vanishes
   (envelopes it originated are never re-sent — the application layer must
   re-issue what still matters; each one's slot is vacated once its armed
   timeout and its copies are gone), the dedup flags of the envelopes
   addressed to it are cleared (retransmissions of pre-crash envelopes
   re-run handlers at most once per new incarnation, and only for
   conversations the sender still keeps, which re-stamp and stay
   exactly-once within the incarnation), and the RTT filters of every
   link touching the node re-converge from scratch. The engine-wide e2e
   filter is deliberately kept: recovery latencies are exactly what the
   end-to-end retry wheel should be learning. *)
let on_crash engine ~node =
  match reliable engine with
  | Some s ->
    let slab = (layer engine).slab in
    let n = ref 0 in
    for e = 0 to Array.length s.live - 1 do
      if s.live.(e) && s.src.(e) = node then begin
        s.live.(e) <- false;
        incr n
      end;
      if slab.kind.(e) = envelope && slab.dst.(e) = node then
        s.delivered.(e) <- false
    done;
    let n = !n in
    s.in_flight <- s.in_flight - n;
    s.crash_wiped <- s.crash_wiped + n;
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
  | Some f -> reliable_send engine f ~src ~dst ~bytes handler a b payload

let send engine ~src ~dst ~bytes handler =
  send_data engine ~src ~dst ~bytes (fun d _ _ _ -> handler d) 0 0 [||]
