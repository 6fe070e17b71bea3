open Dpa_sim
open Dpa_heap

type request = { token : int; ptr : Gptr.t }

(* Observability state, allocated once per node per phase and only when the
   engine carries a sink. Every hot-path hook below is a match on
   [ctx.obs]: with no sink attached nothing is allocated, no time is
   charged, and the phase is bit-identical to an unobserved run. *)
type obs = {
  sink : Dpa_obs.Sink.t;
  label : string;  (* phase label; also the metric-name suffix *)
  h_batch : Dpa_obs.Metrics.histogram;  (* request batch sizes *)
  h_wait : Dpa_obs.Metrics.histogram;  (* thread wait latency, sim-ns *)
  h_out : Dpa_obs.Metrics.histogram;  (* outstanding threads at spawn *)
  h_dbuf : Dpa_obs.Metrics.histogram;  (* D-buffer occupancy at delivery *)
  c_vol : Dpa_obs.Metrics.counter array;  (* request bytes per destination *)
  c_reply : Dpa_obs.Metrics.counter;  (* bulk-reply bytes *)
  c_retry : Dpa_obs.Metrics.counter;  (* timeout-driven request re-issues *)
  issued : (int, int) Hashtbl.t;  (* token -> issue timestamp *)
  mutable strip_open : bool;
  mutable strip_start : int;
  mutable strip_id : int;
  mutable strip_items : int;
  (* Communication-optimality accounting (Export.profile): bytes the node
     actually put on the wire for this phase vs. the surface/volume-style
     lower bound — each unique remote object it touched, fetched exactly
     once at its footprint, plus each unique accumulation target, sent
     exactly once at one update-entry. *)
  touched : int Gptr.Tbl.t;  (* unique remote objects -> footprint bytes *)
  upd_touched : (Gptr.t * int, unit) Hashtbl.t;  (* unique update targets *)
  mutable opt_actual : int;  (* request+update+reply+app-ack bytes *)
  (* Causal tracing (Sink.set_causal): the per-ctx cursor state linking
     scheduler activities into the happens-before DAG. *)
  cau : Dpa_obs.Causal.t option;
  mutable last_act : int;  (* previous quantum/marker on this node, -1 *)
  mutable wake_parents : int list;  (* wake markers awaiting the next quantum *)
  mutable strip_span : int;  (* causal span id of the open strip, -1 *)
  mutable prev_strip_span : int;
}

(* Adaptive strip-size controller, allocated only under [Config.auto].
   It reads quantities the runtime already maintains — the alignment
   buffer's occupancy at the strip boundary and the node's idle-time
   delta over the strip — and charges no simulated time, so a clamped
   controller ([min_strip = max_strip]) never resizes and the run is
   bit-identical to the static configuration. *)
type ctrl = {
  auto : Config.auto_strip;
  mutable size : int;  (* strip size in force for the next strip *)
  mutable primed : bool;  (* a strip has completed; the deltas are valid *)
  mutable clock_at_start : int;
  mutable idle_at_start : int;
}

type ctx = {
  engine : Engine.t;
  machine : Machine.t;
  heaps : Heap.cluster;
  heap : Heap.t;
  node : Node.t;
  cfg : Config.t;
  stats : Dpa_stats.t;
  ready : k Ready_ring.t;
      (* flat (pointer, continuation) ring — the view IS the pointer
         ({!Heap.view}), so dispatch allocates nothing. A crash must
         re-register remote entries (the renamed copy is volatile) while
         local entries re-run against the durable heap. *)
  map : k Pointer_map.t;
  buffer : Align_buffer.t;
  mutable agg : request Dpa_msg.Aggregator.t;
  mutable updates : Update_buffer.t;
  mutable relay : Update_buffer.t;
      (* routed aggregation only: per-final-destination parking buffer for
         update batches this node relays on their way down the binomial
         tree ({!Dpa_msg.Route}). Entries combine here (the grids make the
         merge order-independent) until this node finishes its own items,
         then leave as one merged message per destination; arrivals after
         that forward immediately. Volatile: under a fault plan every
         parked batch stays under its origin's end-to-end custody
         ([out_updates] + [relay_cover]), so a crash here only delays it —
         the origin re-issues straight-line through the WAL path. *)
  relay_cover : (int, (int * int) list) Hashtbl.t;
      (* fault plans × routing: per final destination, the (origin, batch
         id) pairs whose batches are merged into the relay bucket — the
         custody manifest that travels with every relay hop so the final
         owner can journal and ack each covered batch back to its origin.
         As volatile as the relay buffer itself; wiped together at a
         crash. *)
  mutable routing_done : bool;
      (* this node ran its finish-time routing flush; later relay arrivals
         must flush through instead of parking *)
  mutable peers : ctx array;
      (* every ctx of the phase, indexed by node id — how a hop delivery
         reaches the relay state of the receiving node. Set once by
         [run_phase_labeled]; empty while routing is off. *)
  mutable pending : int;  (* threads suspended in M or queued in [ready] *)
  mutable scheduled : bool;
  mutable items : (ctx -> unit) array;
  mutable next_item : int;
  mutable finished : bool;
  rel : bool;
      (* fault plan active: arm end-to-end request timeouts and accept
         duplicate bulk replies (idempotent wakes) *)
  mutable down_until : int;
      (* end of the node's current crash window; 0 when never crashed.
         The scheduler idles up to it before touching ready work, so no
         computation is charged inside a down window. *)
  mutable upd_next_id : int;
  out_updates : (int, int * Update_buffer.entry list) Hashtbl.t;
      (* update batches sent but not yet application-acked, by batch id —
         the durable WAL pointer the update timer re-sends from *)
  upd_journal : (int * int, unit) Hashtbl.t array;
      (* per owner node, shared by every ctx of the phase: (src, batch id)
         pairs already applied to that owner's heap — the in-memory image
         of [jwal], rebuilt from it at restart. A re-sent batch is
         recognized across the owner's crashes and never double-applied. *)
  wal : Wal.t;
      (* this node's durable update-WAL: one Batch record per unacked
         batch in [out_updates], one Acked record per application-level
         ack. [out_updates] is only the in-memory image; a crash clears it
         and the restart walk rebuilds it from the checksum-scanned WAL. *)
  jwal : Wal.t array;
      (* per owner node, shared by every ctx of the phase: the durable
         image of [upd_journal] — one Applied record per fresh batch.
         Crash clears the owner's hashtable; restart rebuilds it here. *)
  mutable wal_scanned : bool;
      (* the restart walk ran its WAL integrity scan — asserted by the
         quiescence certificate for every node that crashed *)
  ctrl : ctrl option;
  obs : obs option;
}

and k = ctx -> Heap.view -> unit

let node_id ctx = ctx.node.Node.id
let heaps ctx = ctx.heaps
let charge ctx ns = Node.charge_local ctx.node ns

(* --- observability emission helpers ------------------------------------ *)

let obs_instant ?args o (n : Node.t) ~name =
  Dpa_obs.Sink.instant ?args o.sink ~cat:"runtime" ~name ~node:n.Node.id
    ~ts:n.Node.clock

let obs_outstanding o (n : Node.t) pending =
  Dpa_obs.Sink.counter o.sink ~name:"outstanding" ~node:n.Node.id
    ~ts:n.Node.clock pending

let obs_strip_end o (n : Node.t) =
  if o.strip_open then begin
    o.strip_open <- false;
    (* Strip spans chain in the event stream only (span_id/parent args,
       previous strip as parent) — the causal DAG stays
       activity-granular. *)
    let cargs =
      if o.strip_span < 0 then []
      else
        ("span_id", Dpa_obs.Sink.Int o.strip_span)
        :: (if o.prev_strip_span >= 0 then
              [ ("parent", Dpa_obs.Sink.Int o.prev_strip_span) ]
            else [])
    in
    Dpa_obs.Sink.span
      ~args:
        (("strip", Dpa_obs.Sink.Int o.strip_id)
        :: ("items", Dpa_obs.Sink.Int o.strip_items)
        :: ("phase", Dpa_obs.Sink.Str o.label)
        :: cargs)
      o.sink ~cat:"strip" ~name:"strip" ~node:n.Node.id ~ts:o.strip_start
      ~dur:(n.Node.clock - o.strip_start);
    if o.strip_span >= 0 then begin
      o.prev_strip_span <- o.strip_span;
      o.strip_span <- -1
    end
  end

let obs_strip_begin o ~start ~items =
  o.strip_open <- true;
  o.strip_id <- o.strip_id + 1;
  o.strip_start <- start;
  o.strip_items <- items;
  match o.cau with
  | None -> ()
  | Some c -> o.strip_span <- Dpa_obs.Causal.fresh c

let obs_align_clear o (n : Node.t) ~size =
  if size > 0 then
    obs_instant ~args:[ ("evicted", Dpa_obs.Sink.Int size) ] o n
      ~name:"align_clear"

let obs_wait o (n : Node.t) token =
  match Hashtbl.find_opt o.issued token with
  | None -> ()
  | Some t0 ->
    Hashtbl.remove o.issued token;
    Dpa_obs.Metrics.observe o.h_wait (n.Node.clock - t0)

(* --- causal-tracing helpers -------------------------------------------- *)

(* Record a completed activity in the happens-before DAG and emit its span
   (cat "act") with span_id/parent args, so the JSONL stream and the DAG
   tell one story. Edges are the caller's business — an activity may have
   several (its Seq predecessor plus any number of Wake parents). *)
let obs_act o c ~id ~parent ~name ~seg (n : Node.t) ~ts ~dur =
  Dpa_obs.Causal.node ~seg c ~id ~name ~node:n.Node.id ~ts ~dur;
  let args =
    ("span_id", Dpa_obs.Sink.Int id)
    :: (if parent >= 0 then [ ("parent", Dpa_obs.Sink.Int parent) ] else [])
  in
  Dpa_obs.Sink.span ~args o.sink ~cat:"act" ~name ~node:n.Node.id ~ts ~dur

(* Zero-duration marker node (wakes, timer re-issues, restart walks):
   records the DAG node and its incoming edge, and returns the id plus the
   span_id/parent args the caller splices into the instant it was already
   emitting. [(-1, [])] with tracing off. *)
let causal_marker o (n : Node.t) ~name ~seg ~kind ~parent =
  match o.cau with
  | None -> (-1, [])
  | Some c ->
    let id = Dpa_obs.Causal.fresh c in
    Dpa_obs.Causal.node ~seg c ~id ~name ~node:n.Node.id ~ts:n.Node.clock
      ~dur:0;
    Dpa_obs.Causal.edge c ~kind ~parent ~child:id;
    ( id,
      ("span_id", Dpa_obs.Sink.Int id)
      :: (if parent >= 0 then [ ("parent", Dpa_obs.Sink.Int parent) ] else [])
    )

(* Run [f] with the causal cursor on [id], so any flight it puts on the
   wire parents there. Transparent when tracing is off. *)
let with_causal o id f =
  match o.cau with
  | Some c when id >= 0 -> Dpa_obs.Causal.with_current c id f
  | _ -> f ()

(* Open a handler-side activity (owner service, update apply) as the child
   of the delivering flight — the causal cursor, set by the transport
   around handler execution — and leave the cursor on it so replies sent
   from the handler parent there; [close_handler_act] records it once the
   handler has charged its work. *)
let open_handler_act ctx (owner : Node.t) =
  match ctx.obs with
  | Some ({ cau = Some c; _ } as o) ->
    let fid = Dpa_obs.Causal.current c in
    let sid = Dpa_obs.Causal.fresh c in
    Dpa_obs.Causal.edge c ~kind:Dpa_obs.Causal.Deliver ~parent:fid ~child:sid;
    Dpa_obs.Causal.set_current c sid;
    Some (o, c, sid, fid, owner.Node.clock)
  | _ -> None

let close_handler_act ~name (owner : Node.t) = function
  | None -> ()
  | Some (o, c, sid, fid, t0) ->
    obs_act o c ~id:sid ~parent:fid ~name ~seg:Dpa_obs.Causal.Compute owner
      ~ts:t0
      ~dur:(owner.Node.clock - t0)

(* Every suspension counts toward the outstanding-thread peak: a thread is
   outstanding from the moment its spawn site runs until the scheduler
   dispatches it, whether its data was at hand locally, in D, or remote.
   (The peak used to be sampled only on the remote-miss path,
   under-reporting whenever inline-local or alignment-hit threads
   dominated a strip.) *)
let note_outstanding ctx =
  ctx.pending <- ctx.pending + 1;
  if ctx.pending > ctx.stats.Dpa_stats.max_outstanding then
    ctx.stats.Dpa_stats.max_outstanding <- ctx.pending

(* --- durable-log codecs ------------------------------------------------- *)

(* Byte codecs for the WAL record payloads ({!Wal}). Every record leads
   with a tag byte; integers are 64-bit little-endian; floats travel as
   their IEEE bits. Ids are monotone per sender/owner, so no two
   consecutive records of one log are ever byte-identical — the property
   Wal's doublewrite repair relies on. *)

let tag_batch = 'B'
let tag_acked = 'A'
let tag_applied = 'J'

let put_i64 b ~pos v = Bytes.set_int64_le b pos (Int64.of_int v)
let get_i64 b ~pos = Int64.to_int (Bytes.get_int64_le b pos)

let encode_batch ~id ~dst batch =
  let n = List.length batch in
  let b = Bytes.create (1 + (8 * 3) + (n * 8 * 4)) in
  Bytes.set b 0 tag_batch;
  put_i64 b ~pos:1 id;
  put_i64 b ~pos:9 dst;
  put_i64 b ~pos:17 n;
  List.iteri
    (fun i { Update_buffer.ptr; idx; value } ->
      let base = 25 + (i * 32) in
      put_i64 b ~pos:base (Gptr.node ptr);
      put_i64 b ~pos:(base + 8) (Gptr.slot ptr);
      put_i64 b ~pos:(base + 16) idx;
      Bytes.set_int64_le b (base + 24) (Int64.bits_of_float value))
    batch;
  b

let encode_acked ~id =
  let b = Bytes.create 9 in
  Bytes.set b 0 tag_acked;
  put_i64 b ~pos:1 id;
  b

let encode_applied ~src ~id =
  let b = Bytes.create 17 in
  Bytes.set b 0 tag_applied;
  put_i64 b ~pos:1 src;
  put_i64 b ~pos:9 id;
  b

(* Decoding only ever sees records [Wal.scan] has already checksum-
   verified, so a malformed record here is a codec bug, not damage. *)
let decode_upd b =
  match Bytes.get b 0 with
  | t when t = tag_acked -> `Acked (get_i64 b ~pos:1)
  | t when t = tag_batch ->
    let id = get_i64 b ~pos:1 in
    let dst = get_i64 b ~pos:9 in
    let n = get_i64 b ~pos:17 in
    let batch =
      List.init n (fun i ->
          let base = 25 + (i * 32) in
          {
            Update_buffer.ptr =
              Gptr.make ~node:(get_i64 b ~pos:base)
                ~slot:(get_i64 b ~pos:(base + 8));
            idx = get_i64 b ~pos:(base + 16);
            value = Int64.float_of_bits (Bytes.get_int64_le b (base + 24));
          })
    in
    `Batch (id, dst, batch)
  | t -> invalid_arg (Printf.sprintf "Runtime: bad update-WAL tag %C" t)

let decode_applied b =
  if Bytes.get b 0 <> tag_applied then
    invalid_arg "Runtime: bad journal tag";
  (get_i64 b ~pos:1, get_i64 b ~pos:9)

(* Batches appended but not yet acknowledged, straight from the durable
   log — must agree with [out_updates] and be empty at the phase barrier
   (the "WAL drained" side of the quiescence certificate). *)
let wal_live_batches wal =
  let live = Hashtbl.create 16 in
  List.iter
    (fun r ->
      match decode_upd r with
      | `Batch (id, _, _) -> Hashtbl.replace live id ()
      | `Acked id -> Hashtbl.remove live id)
    (Wal.records wal);
  Hashtbl.length live

(* --- adaptive strip-size controller ------------------------------------ *)

(* Strip-boundary resize decision, evaluated before D is cleared so the
   occupancy [d_end] is the strip's closing footprint:

   - [d_end > d_target]: the strip materialized more copies than the
     configured ceiling — halve (clamped to [min_strip]).
   - [2 * d_end <= d_target]: doubling the strip cannot overshoot the
     ceiling even if the footprint scales with it, and a bigger strip
     means more reuse per fetched copy and fewer boundary evictions —
     double (clamped to [max_strip]).
   - otherwise hold. The hysteresis band [(d_target/2, d_target]] where
     neither rule fires makes the size converge on steady workloads
     instead of oscillating: a shrink roughly halves the footprint,
     which lands inside the band, not below it.

   The per-strip idle delta rides along in the resize event (and could
   gate a latency-hiding grow rule), but it is not a decision input: on
   this runtime almost all idle accrues at the phase tail, after the
   last strip, so mid-strip idle fractions are noise. *)
let ctrl_decide ctx c =
  if c.primed then begin
    let d_end = Align_buffer.size ctx.buffer in
    let elapsed = ctx.node.Node.clock - c.clock_at_start in
    let idle = ctx.node.Node.idle_ns - c.idle_at_start in
    let old_size = c.size in
    if d_end > c.auto.Config.d_target then
      c.size <- max c.auto.Config.min_strip (c.size / 2)
    else if 2 * d_end <= c.auto.Config.d_target then
      c.size <- min c.auto.Config.max_strip (c.size * 2);
    if c.size <> old_size then begin
      (if c.size > old_size then
         ctx.stats.Dpa_stats.strip_grows <-
           ctx.stats.Dpa_stats.strip_grows + 1
       else
         ctx.stats.Dpa_stats.strip_shrinks <-
           ctx.stats.Dpa_stats.strip_shrinks + 1);
      match ctx.obs with
      | None -> ()
      | Some o ->
        Dpa_obs.Sink.instant
          ~args:
            [
              ("from", Dpa_obs.Sink.Int old_size);
              ("to", Dpa_obs.Sink.Int c.size);
              ("d_end", Dpa_obs.Sink.Int d_end);
              ("idle_ns", Dpa_obs.Sink.Int idle);
              ("elapsed_ns", Dpa_obs.Sink.Int elapsed);
            ]
          o.sink ~cat:"ctrl" ~name:"strip_resize" ~node:ctx.node.Node.id
          ~ts:ctx.node.Node.clock
    end
  end

let ctrl_strip_begin ctx ~start =
  match ctx.ctrl with
  | None -> ()
  | Some c ->
    c.primed <- true;
    c.clock_at_start <- start;
    c.idle_at_start <- ctx.node.Node.idle_ns;
    (match ctx.obs with
    | None -> ()
    | Some o ->
      Dpa_obs.Sink.counter o.sink ~name:"strip_size" ~node:ctx.node.Node.id
        ~ts:start c.size)

(* --- routed aggregation helpers ---------------------------------------- *)

let routing_enabled ctx = ctx.cfg.Config.route <> Config.Off

(* Is [dst] a routed destination for this node? Routed destinations are
   held in the update buffer for the whole phase (combining across strips)
   and leave through the binomial reduction tree instead of the flat path. *)
let route_on ctx dst =
  dst <> node_id ctx
  &&
  match ctx.cfg.Config.route with
  | Config.Off -> false
  | Config.All_dsts -> true
  | Config.Hot dsts -> List.mem dst dsts

(* Split a merged relay bucket back into wire-sized fragments: a phase-long
   combining window can exceed [agg_max], and routed messages must respect
   the same per-message bound as flat ones. *)
let split_batch max_batch entries =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = max_batch then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 entries

(* --- scheduler -------------------------------------------------------- *)

let rec ensure_scheduled ctx =
  if not ctx.scheduled then begin
    ctx.scheduled <- true;
    Engine.post_now ctx.engine ~node:ctx.node (fun () ->
        ctx.scheduled <- false;
        run_quantum ctx)
  end

(* Run ready threads for at most one poll quantum, then decide: keep going
   (via a fresh event, so messages with earlier timestamps interleave —
   this is the "poll" of an FM-style runtime), wait for replies after
   flushing buffered requests, or advance to the next strip. *)
and run_quantum ctx =
  (* A quantum scheduled before a crash can pop inside the down window;
     the node resumes at the restart instant, the gap accounted as idle. *)
  if ctx.node.Node.clock < ctx.down_until then
    Node.wait_until ctx.node ctx.down_until;
  let quantum = ctx.machine.Machine.poll_quantum_ns in
  let start = ctx.node.Node.clock in
  (* Open the quantum activity: chained in program order (Seq) from this
     node's previous activity, plus one Wake edge per reply delivered
     since — those edge gaps are what the critical path charges as
     alignment wait. Recorded even at zero duration: the next activity's
     Seq parent and any flight sent from here must resolve in the stream,
     or obs_check would count a dangling edge. *)
  let act =
    match ctx.obs with
    | Some ({ cau = Some c; _ } as o) ->
      let aid = Dpa_obs.Causal.fresh c in
      let primary =
        if o.last_act >= 0 then o.last_act
        else match o.wake_parents with w :: _ -> w | [] -> -1
      in
      Dpa_obs.Causal.edge c ~kind:Dpa_obs.Causal.Seq ~parent:o.last_act
        ~child:aid;
      List.iter
        (fun w ->
          Dpa_obs.Causal.edge c ~kind:Dpa_obs.Causal.Wake ~parent:w ~child:aid)
        o.wake_parents;
      o.wake_parents <- [];
      Dpa_obs.Causal.set_current c aid;
      Some (o, c, aid, primary)
    | _ -> None
  in
  let rec loop () =
    if Ready_ring.is_empty ctx.ready then after_drain ()
    else if ctx.node.Node.clock - start >= quantum then ensure_scheduled ctx
    else begin
      let ptr = Ready_ring.head_ptr ctx.ready in
      let k = Ready_ring.head_k ctx.ready in
      Ready_ring.drop ctx.ready;
      Node.charge_comm ctx.node ctx.machine.Machine.dispatch_overhead_ns;
      ctx.pending <- ctx.pending - 1;
      k ctx ptr;
      loop ()
    end
  and after_drain () =
    if ctx.pending > 0 then begin
      (* Out of ready threads: push buffered requests onto the wire and
         wait. Replies re-enter through [deliver]. *)
      if Dpa_msg.Aggregator.pending ctx.agg > 0 then
        Dpa_msg.Aggregator.flush_all ctx.agg
    end
    else begin
      (* Strip boundary: outstanding accumulations leave with the strip —
         except routed destinations, whose entries keep combining until
         the finish-time routing flush. *)
      if Update_buffer.pending ctx.updates > 0 then
        Update_buffer.flush_if ctx.updates (fun d -> not (route_on ctx d));
      next_strip ctx
    end
  in
  loop ();
  match act with
  | None -> ()
  | Some (o, c, aid, primary) ->
    Dpa_obs.Causal.set_current c (-1);
    obs_act o c ~id:aid ~parent:primary ~name:"quantum"
      ~seg:Dpa_obs.Causal.Compute ctx.node ~ts:start
      ~dur:(ctx.node.Node.clock - start);
    o.last_act <- aid

(* Strip boundary: discard the alignment buffer (renamed copies die with
   the strip) and inject the next strip of work items. *)
and next_strip ctx =
  (match ctx.obs with None -> () | Some o -> obs_strip_end o ctx.node);
  if ctx.next_item >= Array.length ctx.items then begin
    ctx.finished <- true;
    finish_routing ctx
  end
  else begin
    ctx.stats.Dpa_stats.strips <- ctx.stats.Dpa_stats.strips + 1;
    (* The controller reads D's occupancy before the boundary clears it. *)
    (match ctx.ctrl with None -> () | Some c -> ctrl_decide ctx c);
    (match ctx.obs with
    | None -> ()
    | Some o -> obs_align_clear o ctx.node ~size:(Align_buffer.size ctx.buffer));
    Align_buffer.clear ctx.buffer;
    let start_item = ctx.next_item in
    let start_clock = ctx.node.Node.clock in
    let strip_size =
      match ctx.ctrl with
      | Some c -> c.size
      | None -> ctx.cfg.Config.strip_size
    in
    let limit = min (Array.length ctx.items) (ctx.next_item + strip_size) in
    ctrl_strip_begin ctx ~start:start_clock;
    while ctx.next_item < limit do
      let item = ctx.items.(ctx.next_item) in
      ctx.next_item <- ctx.next_item + 1;
      item ctx
    done;
    (match ctx.obs with
    | None -> ()
    | Some o -> obs_strip_begin o ~start:start_clock ~items:(limit - start_item));
    ensure_scheduled ctx
  end

(* Reply arrival: wake every thread recorded in M for each delivered
   pointer. Threads waiting on the same object are enqueued consecutively,
   so they execute together — the tiling effect.

   Under a fault plan wakes must be idempotent: an end-to-end retry can
   produce a second bulk reply for a token the first copy already
   resolved, and that copy must wake nothing (and must not repopulate the
   alignment buffer — its strip may be long gone). Fault-free, an unknown
   token is still the hard protocol error it always was. M hands the
   woken threads straight to the ready ring. *)
and deliver ctx reqs =
  List.iter
    (fun req ->
      let ptr =
        if ctx.rel then Pointer_map.take_or_nil ctx.map req.token ctx.ready
        else Pointer_map.take ctx.map req.token ctx.ready
      in
      if Gptr.is_nil ptr then (
        match ctx.obs with
        | None -> ()
        | Some o -> obs_instant o ctx.node ~name:"dup_wake")
      else begin
        (match ctx.obs with
        | None -> ()
        | Some o ->
          obs_wait o ctx.node req.token;
          Gptr.Tbl.replace o.touched ptr (Heap.view_bytes ctx.heaps ptr));
        if ctx.cfg.Config.reuse then Align_buffer.add ctx.buffer ptr
      end)
    reqs;
  let peak = Align_buffer.peak ctx.buffer in
  if peak > ctx.stats.Dpa_stats.align_peak then
    ctx.stats.Dpa_stats.align_peak <- peak;
  (match ctx.obs with
  | None -> ()
  | Some o ->
    Dpa_obs.Metrics.observe o.h_dbuf (Align_buffer.size ctx.buffer);
    (* Wake marker: child of the flight that carried the replies (the
       cursor — deliver runs inside the transport's handler wrapper),
       parent of the next quantum on this node. *)
    let wid, cargs =
      causal_marker o ctx.node ~name:"wake" ~seg:Dpa_obs.Causal.Other
        ~kind:Dpa_obs.Causal.Deliver
        ~parent:
          (match o.cau with Some c -> Dpa_obs.Causal.current c | None -> -1)
    in
    if wid >= 0 then o.wake_parents <- wid :: o.wake_parents;
    obs_instant
      ~args:(("replies", Dpa_obs.Sink.Int (List.length reqs)) :: cargs)
      o ctx.node ~name:"wake";
    obs_outstanding o ctx.node ctx.pending);
  ensure_scheduled ctx

(* End-to-end request timeout wheel, the second defence layer above the
   transport's per-message retransmission: if a token is still outstanding
   in M when its deadline passes, re-issue it as a single-entry request and
   back off. The transport alone already guarantees delivery, so firings
   are rare (a deeply backlogged owner); a spurious firing only produces a
   duplicate reply that [deliver] discards. *)
and rt_rto ctx ~bytes =
  let m = ctx.machine in
  let const =
    8
    * ((2 * (m.Machine.send_overhead_ns + m.Machine.recv_overhead_ns))
      + Machine.transfer_ns m ~bytes
      + Machine.transfer_ns m ~bytes:m.Machine.msg_header_bytes
      + (4 * m.Machine.poll_quantum_ns))
  in
  (* Under [adaptive_rto] the constant worst-case formula is only the
     floor: once the transport's estimator has seen full delivery round
     trips — retransmission recovery included — twice that estimate is a
     far better picture of how long "still outstanding" can innocently
     last (e.g. across an injected NIC outage), and using it stops the
     wheel from re-issuing requests the transport was already
     recovering. *)
  if m.Machine.adaptive_rto then Dpa_msg.Am.e2e_rto ctx.engine ~fallback:const
  else const

and arm_request_timer ctx ~dst (req : request) ~rto =
  let deadline = ctx.node.Node.clock + rto in
  (* The timer belongs to the incarnation that armed it: after a crash the
     restart walk re-issues every surviving token with fresh timers, so a
     pre-crash timer firing on the new incarnation would only double the
     wheel. It dies silently instead. *)
  let incarnation = ctx.node.Node.incarnation in
  Engine.post_soft ctx.engine ~time:deadline ~node:(node_id ctx) (fun () ->
      if ctx.node.Node.incarnation <> incarnation then ()
      else
      match Pointer_map.find_ptr ctx.map req.token with
      | None -> ()  (* answered in time: pure no-op, clock untouched *)
      | Some _ ->
        Node.wait_until ctx.node deadline;
        ctx.stats.Dpa_stats.rt_retries <- ctx.stats.Dpa_stats.rt_retries + 1;
        let rid =
          match ctx.obs with
          | None -> -1
          | Some o ->
            Dpa_obs.Metrics.add o.c_retry 1;
            (* Timer firings run outside any quantum: the marker keeps the
               re-issued flight's chain grounded in this node's activity
               history instead of dangling. *)
            let rid, cargs =
              causal_marker o ctx.node ~name:"rt_retry"
                ~seg:Dpa_obs.Causal.Retransmit ~kind:Dpa_obs.Causal.Retry
                ~parent:o.last_act
            in
            obs_instant
              ~args:
                (("token", Dpa_obs.Sink.Int req.token)
                :: ("dst", Dpa_obs.Sink.Int dst)
                :: cargs)
              o ctx.node ~name:"retry";
            rid
        in
        (match ctx.obs with
        | Some o -> with_causal o rid (fun () -> send_request_batch ctx ~dst [ req ])
        | None -> send_request_batch ctx ~dst [ req ]);
        let cap = 1024 * rt_rto ctx ~bytes:(Dpa_msg.Am.request_bytes ctx.machine ~nreqs:1) in
        arm_request_timer ctx ~dst req ~rto:(min (2 * rto) cap))

and flush_requests ctx ~dst batch =
  let nreqs = List.length batch in
  let stats = ctx.stats in
  stats.Dpa_stats.request_msgs <- stats.Dpa_stats.request_msgs + 1;
  stats.Dpa_stats.requests <- stats.Dpa_stats.requests + nreqs;
  if nreqs > stats.Dpa_stats.max_batch then stats.Dpa_stats.max_batch <- nreqs;
  (match ctx.obs with
  | None -> ()
  | Some o ->
    let bytes = Dpa_msg.Am.request_bytes ctx.machine ~nreqs in
    Dpa_obs.Metrics.add o.c_vol.(dst) bytes;
    obs_instant
      ~args:
        [
          ("dst", Dpa_obs.Sink.Int dst);
          ("nreqs", Dpa_obs.Sink.Int nreqs);
          ("bytes", Dpa_obs.Sink.Int bytes);
        ]
      o ctx.node ~name:"req_send");
  send_request_batch ctx ~dst batch;
  if ctx.rel then
    let rto =
      rt_rto ctx ~bytes:(Dpa_msg.Am.request_bytes ctx.machine ~nreqs)
    in
    List.iter (fun req -> arm_request_timer ctx ~dst req ~rto) batch

and send_request_batch ctx ~dst batch =
  let nreqs = List.length batch in
  let bytes = Dpa_msg.Am.request_bytes ctx.machine ~nreqs in
  (* Optimality numerator: every wire-out counts, wheel re-issues
     included — that surplus is exactly what the ratio exposes. *)
  (match ctx.obs with
  | None -> ()
  | Some o -> o.opt_actual <- o.opt_actual + bytes);
  Dpa_msg.Am.send ctx.engine ~src:ctx.node ~dst ~bytes (fun owner ->
      (* Owner-side service handler: look the objects up and ship them back
         in one bulk reply. This steals owner CPU, as an FM handler does. *)
      let m = ctx.machine in
      let svc = open_handler_act ctx owner in
      Node.charge_comm owner
        (m.Machine.request_service_ns
        + (nreqs * m.Machine.request_service_per_obj_ns));
      (* Payload is accounting only: the wire carries the objects' byte
         footprint, and the delivered views alias the owner's store — no
         copy-out here. *)
      let owner_heap = ctx.heaps.(dst) in
      let payload = ref 0 in
      List.iter
        (fun req -> payload := !payload + Heap.obj_bytes owner_heap req.ptr)
        batch;
      let reply = Dpa_msg.Am.reply_bytes m ~payload:!payload ~nreqs in
      (match ctx.obs with
      | None -> ()
      | Some o ->
        o.opt_actual <- o.opt_actual + reply;
        Dpa_obs.Metrics.add o.c_reply reply;
        Dpa_obs.Sink.instant
          ~args:
            [
              ("to", Dpa_obs.Sink.Int ctx.node.Node.id);
              ("nreqs", Dpa_obs.Sink.Int nreqs);
              ("bytes", Dpa_obs.Sink.Int reply);
            ]
          o.sink ~cat:"msg" ~name:"bulk_reply" ~node:owner.Node.id
          ~ts:owner.Node.clock);
      Dpa_msg.Am.send ctx.engine ~src:owner ~dst:ctx.node.Node.id ~bytes:reply
        (fun _self -> deliver ctx batch);
      close_handler_act ~name:"service" owner svc)

and flush_updates ctx ~dst batch =
  let n = List.length batch in
  ctx.stats.Dpa_stats.update_msgs <- ctx.stats.Dpa_stats.update_msgs + 1;
  let bytes = Dpa_msg.Am.update_bytes ctx.machine ~nupdates:n in
  (match ctx.obs with
  | None -> ()
  | Some o ->
    Dpa_obs.Metrics.add o.c_vol.(dst) bytes;
    obs_instant
      ~args:
        [
          ("dst", Dpa_obs.Sink.Int dst);
          ("nupdates", Dpa_obs.Sink.Int n);
          ("bytes", Dpa_obs.Sink.Int bytes);
        ]
      o ctx.node ~name:"upd_send");
  if ctx.rel then begin
    (* End-to-end exactly-once for accumulations. The transport's dedup is
       per incarnation, so a crash on either end could double- or
       zero-apply a batch: an owner crash forgets that a retransmitted
       batch already ran, a sender crash destroys an undelivered envelope.
       Each batch therefore gets a stable id, the owner journals applied
       ids durably (one atomic action with the heap mutation, by
       contract), re-sends are journal-deduplicated and re-acked, and the
       sender's timer re-sends until the application-level ack clears the
       batch from [out_updates]. *)
    let id = ctx.upd_next_id in
    ctx.upd_next_id <- id + 1;
    (* Write-ahead: the Batch record is durable before the first copy hits
       the wire, so a crash between here and the ack can always rebuild
       the batch from the scanned WAL. *)
    Wal.append ctx.wal (encode_batch ~id ~dst batch);
    Hashtbl.replace ctx.out_updates id (dst, batch);
    send_update_batch ctx ~dst ~id batch;
    arm_update_timer ctx ~id ~rto:(rt_rto ctx ~bytes)
  end
  else begin
    (match ctx.obs with
    | None -> ()
    | Some o -> o.opt_actual <- o.opt_actual + bytes);
    Dpa_msg.Am.send ctx.engine ~src:ctx.node ~dst ~bytes (fun owner ->
        let m = ctx.machine in
        let svc = open_handler_act ctx owner in
        Node.charge_comm owner (n * m.Machine.update_apply_ns);
        let owner_heap = ctx.heaps.(dst) in
        List.iter
          (fun { Update_buffer.ptr; idx; value } ->
            Heap.bump_float owner_heap ptr ~idx value)
          batch;
        close_handler_act ~name:"upd_apply" owner svc)
  end

(* Finish-time routing flush. Once this node has run its last item, its
   held (routed) accumulations drain into the relay buffer — merging with
   anything parked there by downstream tree children — and everything
   leaves as one combined message per final destination. Until every
   sender along a tree path has finished, entries simply park; the DES has
   no deadlock risk because parking consumes no events and every node's
   finish is driven by its own item stream. *)
and finish_routing ctx =
  if routing_enabled ctx && not ctx.routing_done then begin
    Update_buffer.flush_all ctx.updates;
    ctx.routing_done <- true;
    Update_buffer.flush_all ctx.relay
  end

(* A routed batch arriving at an intermediate node: park and combine in the
   relay buffer keyed by final destination. After the node's own routing
   flush has run, there is nothing left to merge with — flush straight
   through so quiescence holds. Under a fault plan the batch's custody
   manifest [cover] parks alongside it (and leaves with it), so the merged
   entries never lose track of which origin-anchored batches they carry. *)
and relay_receive ctx ~fdst ~cover entries =
  (if cover <> [] then
     let prev =
       match Hashtbl.find_opt ctx.relay_cover fdst with
       | Some l -> l
       | None -> []
     in
     Hashtbl.replace ctx.relay_cover fdst (prev @ cover));
  Update_buffer.add_entries ctx.relay ~dst:fdst entries;
  if ctx.routing_done then Update_buffer.flush_if ctx.relay (fun d -> d = fdst)

(* Forward one relay bucket toward its final destination: either hand it to
   the flat update path (last hop — the WAL exactly-once protocol under a
   fault plan) or send it one binomial-tree hop closer
   ({!Dpa_msg.Route.next_hop}), where it parks in the hop's relay buffer.
   Intermediate hops ride the transport's link-level reliability
   (retransmit + dedup cover drop, dup and delay faults); crash faults are
   covered end-to-end by the origins' custody — every batch merged into
   this bucket stays in its origin's [out_updates] until the final owner's
   application-level ack, so a hop crash only costs a straight-line
   re-issue.

   Fault-free, the bucket fragments to the aggregation bound like any flat
   message. Under a fault plan it does not: the (cover, merged entries)
   pair is one atomic custody unit — a fragment boundary through it would
   let the owner journal a covered batch whose entries were split across
   fragments, and a lost second fragment would then be unrecoverable. *)
and relay_forward ctx ~fdst batch =
  let nnodes = Array.length ctx.heaps in
  let hop = Dpa_msg.Route.next_hop ~nnodes ~src:(node_id ctx) ~dst:fdst in
  if ctx.rel then begin
    let cover =
      match Hashtbl.find_opt ctx.relay_cover fdst with
      | Some l -> l
      | None -> []
    in
    Hashtbl.remove ctx.relay_cover fdst;
    assert (cover <> []);
    let n = List.length batch in
    ctx.stats.Dpa_stats.update_msgs <- ctx.stats.Dpa_stats.update_msgs + 1;
    (* The custody manifest rides the message: two ids per covered batch. *)
    let bytes =
      Dpa_msg.Am.update_bytes ctx.machine ~nupdates:n
      + (16 * List.length cover)
    in
    (match ctx.obs with
    | None -> ()
    | Some o ->
      Dpa_obs.Metrics.add o.c_vol.(hop) bytes;
      o.opt_actual <- o.opt_actual + bytes;
      obs_instant
        ~args:
          [
            ("hop", Dpa_obs.Sink.Int hop);
            ("fdst", Dpa_obs.Sink.Int fdst);
            ("nupdates", Dpa_obs.Sink.Int n);
            ("cover", Dpa_obs.Sink.Int (List.length cover));
            ("bytes", Dpa_obs.Sink.Int bytes);
          ]
        o ctx.node ~name:"relay_send");
    if hop = fdst then
      Dpa_msg.Am.send ctx.engine ~src:ctx.node ~dst:fdst ~bytes (fun owner ->
          routed_owner_apply ctx ~fdst ~cover batch owner)
    else
      Dpa_msg.Am.send ctx.engine ~src:ctx.node ~dst:hop ~bytes (fun hopnode ->
          let peer = ctx.peers.(hop) in
          let svc = open_handler_act ctx hopnode in
          Node.charge_comm hopnode (n * ctx.machine.Machine.update_apply_ns);
          relay_receive peer ~fdst ~cover batch;
          close_handler_act ~name:"relay" hopnode svc)
  end
  else
    List.iter
      (fun frag ->
        if hop = fdst then flush_updates ctx ~dst:fdst frag
        else begin
          let n = List.length frag in
          ctx.stats.Dpa_stats.update_msgs <-
            ctx.stats.Dpa_stats.update_msgs + 1;
          let bytes = Dpa_msg.Am.update_bytes ctx.machine ~nupdates:n in
          (match ctx.obs with
          | None -> ()
          | Some o ->
            Dpa_obs.Metrics.add o.c_vol.(hop) bytes;
            (* Actual bytes are charged at every hop's sender; the lower
               bound is recorded at the origin only ([accumulate]), so tree
               routing can only close the gap when combining saves more
               than the extra hops cost. *)
            o.opt_actual <- o.opt_actual + bytes;
            obs_instant
              ~args:
                [
                  ("hop", Dpa_obs.Sink.Int hop);
                  ("fdst", Dpa_obs.Sink.Int fdst);
                  ("nupdates", Dpa_obs.Sink.Int n);
                  ("bytes", Dpa_obs.Sink.Int bytes);
                ]
              o ctx.node ~name:"relay_send");
          Dpa_msg.Am.send ctx.engine ~src:ctx.node ~dst:hop ~bytes
            (fun hopnode ->
              let peer = ctx.peers.(hop) in
              let svc = open_handler_act ctx hopnode in
              Node.charge_comm hopnode
                (n * ctx.machine.Machine.update_apply_ns);
              relay_receive peer ~fdst ~cover:[] frag;
              close_handler_act ~name:"relay" hopnode svc)
        end)
      (split_batch ctx.cfg.Config.agg_max batch)

(* Origin custody for a routed batch under a fault plan. The batch gets the
   same durable treatment as a flat one — stable id, write-ahead Batch
   record, an [out_updates] entry the quiescence certificate watches, and
   a fenced end-to-end timer — but its first copy enters the combining
   tree instead of the wire to the owner. If the tree delivers, the final
   owner journals the covered id and acks end-to-end; if any hop crashes
   while holding it (or the ack never comes), the timer re-issues the
   batch straight-line through [send_update_batch], where the owner's
   applied-batch journal dedups it against any copy that survived the
   tree. The timer budget is scaled by the tree depth: a parked batch
   legitimately waits for every hop on its path to finish its own items. *)
and routed_origin_send ctx ~fdst batch =
  let id = ctx.upd_next_id in
  ctx.upd_next_id <- id + 1;
  Wal.append ctx.wal (encode_batch ~id ~dst:fdst batch);
  Hashtbl.replace ctx.out_updates id (fdst, batch);
  let nnodes = Array.length ctx.heaps in
  let bytes =
    Dpa_msg.Am.update_bytes ctx.machine ~nupdates:(List.length batch)
  in
  let depth =
    Dpa_msg.Route.hops ~nnodes ~src:(node_id ctx) ~dst:fdst
  in
  arm_update_timer ctx ~id ~rto:((depth + 1) * rt_rto ctx ~bytes);
  relay_receive ctx ~fdst ~cover:[ (node_id ctx, id) ] batch

(* Final-owner apply of a tree-merged message. The cover names every
   origin-anchored batch whose entries are numerically merged into
   [batch], so freshness is all-or-nothing: if every covered batch is
   fresh, journal them all and apply the merged entries as one atomic
   action, then ack each origin; if ANY covered batch was already applied
   (a straight-line replay beat the tree), the merged entries cannot be
   applied — nor split — so nothing applies, the already-journaled pairs
   are re-acked (their previous acks may have been lost), and each fresh
   pair is left to its origin's timer, whose straight-line re-issue is
   single-origin and therefore can never be partially duplicate. The
   fixed-point grids make the recovered sum bit-identical either way. *)
and routed_owner_apply ctx ~fdst ~cover batch owner =
  let m = ctx.machine in
  let svc = open_handler_act ctx owner in
  let n = List.length batch in
  Node.charge_comm owner (n * m.Machine.update_apply_ns);
  let journal = ctx.upd_journal.(fdst) in
  let dups, fresh =
    List.partition (fun key -> Hashtbl.mem journal key) cover
  in
  let acked =
    if dups = [] then begin
      List.iter
        (fun (src, id) ->
          Wal.append ctx.jwal.(fdst) (encode_applied ~src ~id);
          Hashtbl.replace journal (src, id) ())
        fresh;
      let owner_heap = ctx.heaps.(fdst) in
      List.iter
        (fun { Update_buffer.ptr; idx; value } ->
          Heap.bump_float owner_heap ptr ~idx value)
        batch;
      fresh
    end
    else dups
  in
  let ack = m.Machine.msg_header_bytes in
  List.iter
    (fun (src, id) ->
      (match ctx.obs with
      | None -> ()
      | Some o -> o.opt_actual <- o.opt_actual + ack);
      Dpa_msg.Am.send ctx.engine ~src:owner ~dst:src ~bytes:ack (fun _self ->
          let octx = ctx.peers.(src) in
          if Hashtbl.mem octx.out_updates id then begin
            Wal.append octx.wal (encode_acked ~id);
            Hashtbl.remove octx.out_updates id
          end))
    acked;
  close_handler_act ~name:"upd_apply" owner svc

and send_update_batch ctx ~dst ~id batch =
  let n = List.length batch in
  let bytes = Dpa_msg.Am.update_bytes ctx.machine ~nupdates:n in
  let src_id = node_id ctx in
  (match ctx.obs with
  | None -> ()
  | Some o -> o.opt_actual <- o.opt_actual + bytes);
  Dpa_msg.Am.send ctx.engine ~src:ctx.node ~dst ~bytes (fun owner ->
      let m = ctx.machine in
      let svc = open_handler_act ctx owner in
      (* The apply cost is charged whether or not the batch is fresh: a
         journal hit still parses the message and probes the journal. *)
      Node.charge_comm owner (n * m.Machine.update_apply_ns);
      let journal = ctx.upd_journal.(dst) in
      let key = (src_id, id) in
      if not (Hashtbl.mem journal key) then begin
        (* Journal entry and heap mutation are one atomic action; the
           durable Applied record is what survives the owner's crash. *)
        Wal.append ctx.jwal.(dst) (encode_applied ~src:src_id ~id);
        Hashtbl.replace journal key ();
        let owner_heap = ctx.heaps.(dst) in
        List.iter
          (fun { Update_buffer.ptr; idx; value } ->
            Heap.bump_float owner_heap ptr ~idx value)
          batch
      end;
      (* Application-level ack, re-sent for journaled duplicates too: a
         lost ack is repaired by the next timer-driven re-send. *)
      let ack = m.Machine.msg_header_bytes in
      (match ctx.obs with
      | None -> ()
      | Some o -> o.opt_actual <- o.opt_actual + ack);
      Dpa_msg.Am.send ctx.engine ~src:owner ~dst:src_id ~bytes:ack
        (fun _self ->
          (* Acked is only journaled for a live batch: a duplicate ack
             (journal-hit re-send, or one racing a crash rebuild) must not
             write consecutive identical records. *)
          if Hashtbl.mem ctx.out_updates id then begin
            Wal.append ctx.wal (encode_acked ~id);
            Hashtbl.remove ctx.out_updates id
          end);
      close_handler_act ~name:"upd_apply" owner svc)

and arm_update_timer ctx ~id ~rto =
  let deadline = ctx.node.Node.clock + rto in
  (* Fenced to the arming incarnation, like request timers: after a sender
     crash the restart walk rebuilds [out_updates] from the checksum-
     scanned WAL and re-sends every surviving batch with fresh timers, so
     a pre-crash timer firing on the new incarnation would only double the
     wheel. (Before the WAL existed, [out_updates] itself was declared
     durable and the unfenced timer was the re-drive mechanism.) *)
  let incarnation = ctx.node.Node.incarnation in
  Engine.post_soft ctx.engine ~time:deadline ~node:(node_id ctx) (fun () ->
      if ctx.node.Node.incarnation <> incarnation then ()
      else
      match Hashtbl.find_opt ctx.out_updates id with
      | None -> ()  (* acked in time: pure no-op, clock untouched *)
      | Some (dst, batch) ->
        Node.wait_until ctx.node deadline;
        ctx.stats.Dpa_stats.upd_reissues <-
          ctx.stats.Dpa_stats.upd_reissues + 1;
        let rid =
          match ctx.obs with
          | None -> -1
          | Some o ->
            let rid, cargs =
              causal_marker o ctx.node ~name:"upd_retry"
                ~seg:Dpa_obs.Causal.Retransmit ~kind:Dpa_obs.Causal.Retry
                ~parent:o.last_act
            in
            obs_instant
              ~args:
                (("id", Dpa_obs.Sink.Int id)
                :: ("dst", Dpa_obs.Sink.Int dst)
                :: cargs)
              o ctx.node ~name:"upd_retry";
            rid
        in
        (match ctx.obs with
        | Some o ->
          with_causal o rid (fun () -> send_update_batch ctx ~dst ~id batch)
        | None -> send_update_batch ctx ~dst ~id batch);
        let cap =
          1024
          * rt_rto ctx
              ~bytes:
                (Dpa_msg.Am.update_bytes ctx.machine
                   ~nupdates:(List.length batch))
        in
        arm_update_timer ctx ~id ~rto:(min (2 * rto) cap))

(* --- the access operations --------------------------------------------- *)

let read ctx ptr k =
  if Gptr.is_nil ptr then invalid_arg "Runtime.read: nil pointer";
  (* Thread creation is charged on every labeled spawn site — the data may
     turn out to be local, but the compiler emitted a thread either way
     (this is the single-node overhead visible in the paper's P=1 column).
     Threads whose data is at hand still go through the ready queue rather
     than running inline: dispatching through the scheduler is what keeps
     the poll quantum honest (a node deep in local work must still extract
     incoming requests), exactly as a polling FM runtime behaves. *)
  Node.charge_comm ctx.node ctx.machine.Machine.spawn_overhead_ns;
  if Gptr.node ptr = ctx.node.Node.id then begin
    (* Validate the slot now, not at dispatch: a dangling local read must
       surface at the read site (the boxed heap dereferenced here). *)
    if Gptr.slot ptr >= Heap.size ctx.heaps.(ctx.node.Node.id) then
      invalid_arg "Runtime.read: dangling slot";
    ctx.stats.Dpa_stats.inline_local <- ctx.stats.Dpa_stats.inline_local + 1;
    note_outstanding ctx;
    Ready_ring.push ctx.ready ptr k;
    ensure_scheduled ctx
  end
  else if ctx.cfg.Config.reuse && Align_buffer.mem ctx.buffer ptr then begin
    ctx.stats.Dpa_stats.align_hits <- ctx.stats.Dpa_stats.align_hits + 1;
    (match ctx.obs with
    | None -> ()
    | Some o ->
      Gptr.Tbl.replace o.touched ptr (Heap.view_bytes ctx.heaps ptr);
      obs_instant o ctx.node ~name:"align_hit");
    note_outstanding ctx;
    Ready_ring.push ctx.ready ptr k;
    ensure_scheduled ctx
  end
  else begin
    note_outstanding ctx;
    match Pointer_map.register ctx.map ~reuse:ctx.cfg.Config.reuse ptr k with
    | `Merged ->
      ctx.stats.Dpa_stats.merge_hits <- ctx.stats.Dpa_stats.merge_hits + 1;
      (match ctx.obs with
      | None -> ()
      | Some o -> obs_instant o ctx.node ~name:"merge_hit")
    | `New_request token ->
      ctx.stats.Dpa_stats.spawns <- ctx.stats.Dpa_stats.spawns + 1;
      (match ctx.obs with
      | None -> ()
      | Some o ->
        Hashtbl.replace o.issued token ctx.node.Node.clock;
        Dpa_obs.Metrics.observe o.h_out ctx.pending;
        obs_instant
          ~args:[ ("dst", Dpa_obs.Sink.Int (Gptr.node ptr)) ]
          o ctx.node ~name:"spawn";
        obs_outstanding o ctx.node ctx.pending);
      Dpa_msg.Aggregator.add ctx.agg ~dst:(Gptr.node ptr) { token; ptr }
  end

let accumulate ctx ptr ~idx value =
  if Gptr.is_nil ptr then invalid_arg "Runtime.accumulate: nil pointer";
  ctx.stats.Dpa_stats.updates <- ctx.stats.Dpa_stats.updates + 1;
  if Gptr.node ptr = ctx.node.Node.id then begin
    Node.charge_local ctx.node ctx.machine.Machine.update_apply_ns;
    Heap.bump_float ctx.heap ptr ~idx value
  end
  else begin
    Node.charge_comm ctx.node ctx.machine.Machine.spawn_overhead_ns;
    (match ctx.obs with
    | None -> ()
    | Some o -> Hashtbl.replace o.upd_touched (ptr, idx) ());
    let before = Update_buffer.combined ctx.updates in
    Update_buffer.add ctx.updates ~dst:(Gptr.node ptr) ptr ~idx value;
    if Update_buffer.combined ctx.updates > before then
      ctx.stats.Dpa_stats.updates_combined <-
        ctx.stats.Dpa_stats.updates_combined + 1
  end

(* --- phase driver ------------------------------------------------------ *)

let make_obs ~engine ~heaps ~label =
  match Engine.sink engine with
  | None -> None
  | Some sink ->
    let reg = Dpa_obs.Sink.metrics sink in
    let h name = Dpa_obs.Metrics.histogram reg (name ^ "." ^ label) in
    Some
      {
        sink;
        label;
        h_batch = h "agg_batch";
        h_wait = h "wait_ns";
        h_out = h "outstanding";
        h_dbuf = h "dbuf";
        c_vol =
          Array.init (Array.length heaps) (fun d ->
              Dpa_obs.Metrics.counter reg
                (Printf.sprintf "msg_bytes_dst%d.%s" d label));
        c_reply = Dpa_obs.Metrics.counter reg ("reply_bytes." ^ label);
        c_retry = Dpa_obs.Metrics.counter reg ("retries." ^ label);
        issued = Hashtbl.create 64;
        strip_open = false;
        strip_start = 0;
        strip_id = 0;
        strip_items = 0;
        touched = Gptr.Tbl.create 256;
        upd_touched = Hashtbl.create 256;
        opt_actual = 0;
        cau = Dpa_obs.Sink.causal sink;
        last_act = -1;
        wake_parents = [];
        strip_span = -1;
        prev_strip_span = -1;
      }

let make_ctx ~engine ~heaps ~config ~items ~label ~journals ~jwals node =
  let dummy =
    Dpa_msg.Aggregator.create ~ndest:1 ~max_batch:1 ~flush:(fun ~dst:_ _ ->
        assert false)
  in
  let dummy_updates () =
    Update_buffer.create ~ndest:1 ~combine:false ~max_batch:1
      ~flush:(fun ~dst:_ _ -> assert false)
      ()
  in
  let ctx =
    {
      engine;
      machine = Engine.machine engine;
      heaps;
      heap = heaps.(node.Node.id);
      node;
      cfg = config;
      stats = Dpa_stats.create ();
      ready = Ready_ring.create ~dummy:(fun _ _ -> ());
      map = Pointer_map.create ~node:node.Node.id ~dummy:(fun _ _ -> ());
      buffer = Align_buffer.create ();
      agg = dummy;
      updates = dummy_updates ();
      relay = dummy_updates ();
      relay_cover = Hashtbl.create 8;
      routing_done = false;
      peers = [||];
      pending = 0;
      scheduled = false;
      items;
      next_item = 0;
      finished = false;
      rel = Engine.fault engine <> None;
      down_until = 0;
      upd_next_id = 0;
      out_updates = Hashtbl.create 16;
      upd_journal = journals;
      wal = Wal.create ();
      jwal = jwals;
      wal_scanned = false;
      ctrl =
        (match config.Config.auto with
        | None -> None
        | Some a ->
          Some
            {
              auto = a;
              size = config.Config.strip_size;
              primed = false;
              clock_at_start = 0;
              idle_at_start = 0;
            });
      obs = make_obs ~engine ~heaps ~label;
    }
  in
  ctx.agg <-
    Dpa_msg.Aggregator.create
      ~ndest:(Array.length heaps)
      ~max_batch:config.Config.agg_max
      ~flush:(fun ~dst batch -> flush_requests ctx ~dst batch);
  (match ctx.obs with
  | None -> ()
  | Some o ->
    Dpa_msg.Aggregator.set_observer ctx.agg
      (Some (fun ~dst:_ n -> Dpa_obs.Metrics.observe o.h_batch n)));
  ctx.updates <-
    Update_buffer.create
      ~hold:(fun dst -> route_on ctx dst)
      ~ndest:(Array.length heaps)
      ~combine:config.Config.reuse ~max_batch:config.Config.agg_max
      ~flush:(fun ~dst batch ->
        (* Routed destinations drain into the relay buffer (merging with
           parked downstream contributions) instead of going to the wire;
           [finish_routing] then forwards the combined result. Under a
           fault plan the batch first takes origin custody — WAL record,
           [out_updates] entry, end-to-end timer — so a crash anywhere on
           its tree path is recoverable. *)
        if route_on ctx dst then
          if ctx.rel then routed_origin_send ctx ~fdst:dst batch
          else Update_buffer.add_entries ctx.relay ~dst batch
        else flush_updates ctx ~dst batch)
      ();
  ctx.relay <-
    Update_buffer.create
      ~hold:(fun _ -> true) (* drained only by the explicit routing flush *)
      ~ndest:(Array.length heaps)
      ~combine:true ~max_batch:config.Config.agg_max
      ~flush:(fun ~dst batch -> relay_forward ctx ~fdst:dst batch)
      ();
  ctx

(* --- crash-restart ------------------------------------------------------ *)

(* Execute a crash on [ctx]'s node. Volatile state dies here:

   - the node's incarnation is bumped, fencing every message copy stamped
     for the old one (Am checks at delivery);
   - the transport forgets the node's unacked envelopes, dedup entries and
     link RTT filters ([Am.on_crash]);
   - the alignment buffer D and the aggregator's unsent batches are
     discarded;
   - ready-queue threads lose the object views they were holding: local
     entries re-read the durable heap, remote entries re-register in M.

   Durable by contract (see DESIGN.md §13): the heap, the result arrays,
   the pointer map M (spawn records, no partial execution), the update
   buffer, and the checksummed WALs — the sender-side update-WAL behind
   [out_updates] and the owner-side applied-batch journal behind
   [upd_journal]. The in-memory hashtable images of both die with the
   crash and are rebuilt from the checksum-scanned logs; under [torn_wal]
   the crash may additionally tear the tail record of either log, which
   the recovery scan detects and repairs ({!Wal}). *)
let crash_node ctx ~plan ~restart_at =
  let n = ctx.node in
  n.Node.incarnation <- n.Node.incarnation + 1;
  ctx.down_until <- max ctx.down_until restart_at;
  ctx.stats.Dpa_stats.crashes <- ctx.stats.Dpa_stats.crashes + 1;
  ignore (Dpa_msg.Am.on_crash ctx.engine ~node:n.Node.id);
  Align_buffer.clear ctx.buffer;
  ignore (Dpa_msg.Aggregator.clear ctx.agg);
  (* The in-memory images of the durable logs are volatile: they die with
     the crash and are rebuilt below from the scanned WALs. *)
  Hashtbl.reset ctx.out_updates;
  Hashtbl.reset ctx.upd_journal.(n.Node.id);
  (* Routed aggregation: the relay buffer and its custody manifest die with
     the crash. Every batch parked here is still under its origin's
     end-to-end custody, so losing the combined copy only delays it — but
     waiting for the origin's (tree-depth-scaled) timer is slow, so the
     crash doubles as a hop-incarnation-change notification: each remote
     origin re-issues its covered batch straight-line as soon as it could
     plausibly have observed the new incarnation (one wire crossing plus a
     poll quantum). Fenced to the origin's incarnation at the crash
     instant, and skipped if the batch was acked meanwhile (a duplicate
     copy survived the tree) — a stale firing is a pure no-op. Pairs this
     node originated itself are skipped too: its own restart walk re-sends
     everything in [out_updates]. *)
  if Array.length ctx.peers > 0 then begin
    let lost =
      Hashtbl.fold
        (fun _ cover acc -> List.rev_append cover acc)
        ctx.relay_cover []
    in
    Hashtbl.reset ctx.relay_cover;
    ctx.stats.Dpa_stats.relay_wiped <-
      ctx.stats.Dpa_stats.relay_wiped + Update_buffer.clear ctx.relay;
    let notify_at =
      Engine.elapsed ctx.engine
      + ctx.machine.Machine.wire_latency_ns
      + ctx.machine.Machine.poll_quantum_ns
    in
    List.iter
      (fun (src, id) ->
        if src <> n.Node.id then begin
          let octx = ctx.peers.(src) in
          let inc = octx.node.Node.incarnation in
          Engine.post_soft ctx.engine ~time:notify_at ~node:src (fun () ->
              if octx.node.Node.incarnation = inc then
                match Hashtbl.find_opt octx.out_updates id with
                | None -> ()
                | Some (dst, batch) ->
                  Node.wait_until octx.node (max notify_at octx.down_until);
                  octx.stats.Dpa_stats.routed_reissues <-
                    octx.stats.Dpa_stats.routed_reissues + 1;
                  send_update_batch octx ~dst ~id batch)
        end)
      (List.sort compare lost)
  end;
  (* Torn writes: the crash may damage the tail of the victim's durable
     logs mid-write. [draw_tears] is empty (no stream access) when the
     knob is off, so legacy crash schedules replay unchanged. *)
  let torn =
    List.fold_left
      (fun acc (tear : Fault.tear) ->
        let target =
          match tear.Fault.tear_log with
          | `Update_wal -> ctx.wal
          | `Journal -> ctx.jwal.(n.Node.id)
        in
        if
          Wal.tear target ~slot:tear.Fault.tear_slot ~flip:tear.Fault.tear_flip
            ~pos:tear.Fault.tear_pos
        then acc + 1
        else acc)
      0 (Fault.draw_tears plan)
  in
  (* Integrity scan + image rebuild, atomically at the crash: the scan
     must complete before the node touches either log again, and "again"
     can be earlier than the restart event — a pre-crash quantum popping
     inside the down window resumes at the restart instant and may flush
     fresh batches (each append overwrites the doublewrite slot, which
     would strand a still-unrepaired torn tail), and a peer's retransmit
     can reach the new incarnation before the restart event runs (the
     journal image must already dedup it, or an applied batch would
     double-apply). In wall-clock terms this IS restart-time recovery —
     first thing on the new incarnation, before any post-crash append or
     delivery; the sim just anchors it to the crash event to make that
     ordering airtight. *)
  let scan wal =
    let r = Wal.scan wal in
    ctx.stats.Dpa_stats.wal_truncated <-
      ctx.stats.Dpa_stats.wal_truncated + r.Wal.truncated;
    ctx.stats.Dpa_stats.wal_repaired <-
      ctx.stats.Dpa_stats.wal_repaired + r.Wal.repaired;
    r.Wal.records
  in
  let upd_records = scan ctx.wal in
  List.iter
    (fun r ->
      let src, id = decode_applied r in
      Hashtbl.replace ctx.upd_journal.(n.Node.id) (src, id) ())
    (scan ctx.jwal.(n.Node.id));
  List.iter
    (fun r ->
      match decode_upd r with
      | `Batch (id, dst, batch) -> Hashtbl.replace ctx.out_updates id (dst, batch)
      | `Acked id -> Hashtbl.remove ctx.out_updates id)
    upd_records;
  ctx.wal_scanned <- true;
  let entries = Ready_ring.length ctx.ready in
  for _ = 1 to entries do
    let ptr = Ready_ring.head_ptr ctx.ready in
    let k = Ready_ring.head_k ctx.ready in
    Ready_ring.drop ctx.ready;
    if Gptr.node ptr = n.Node.id then Ready_ring.push ctx.ready ptr k
    else
      (* The thread stays pending; it merely moves from ready back into M
         (so [ctx.pending] is untouched). The restart walk re-issues
         whatever tokens this creates. *)
      ignore (Pointer_map.register ctx.map ~reuse:ctx.cfg.Config.reuse ptr k)
  done;
  match ctx.obs with
  | None -> ()
  | Some o ->
    obs_instant
      ~args:
        (("incarnation", Dpa_obs.Sink.Int n.Node.incarnation)
        :: ("restart_at", Dpa_obs.Sink.Int restart_at)
        ::
        (* Only stamped when a tear actually landed, so crash events of
           torn-wal-free runs are byte-identical to the pre-WAL stream. *)
        (if torn > 0 then [ ("torn", Dpa_obs.Sink.Int torn) ] else []))
      o n ~name:"crash"

(* Rejoin at the restart instant: idle up to it, then re-drive. The
   integrity scan and the image rebuild already ran at the crash event
   (see [crash_node] — they must precede any post-crash append or
   delivery, which can beat the restart event); what remains here is the
   active half of recovery:

   1. re-send every still-unacked batch in [out_updates] (rebuilt from
      the checksum-scanned WAL, plus anything flushed since) with fresh
      (fenced) timers, in batch-id order — a torn-and-repaired tail
      re-issued through the normal path;
   2. push every outstanding token in M back through the normal
      alignment path — the "transparent re-fetch" of orphaned requests.
      Token order keeps the walk deterministic. *)
let restart_node ctx ~restart_at =
  let n = ctx.node in
  Node.wait_until n restart_at;
  let unacked =
    List.sort compare
      (Hashtbl.fold (fun id v acc -> (id, v) :: acc) ctx.out_updates [])
  in
  let outstanding =
    List.sort compare
      (Pointer_map.fold_outstanding ctx.map
         (fun token ptr acc -> (token, ptr) :: acc)
         [])
  in
  ctx.stats.Dpa_stats.crash_refetches <-
    ctx.stats.Dpa_stats.crash_refetches + List.length outstanding;
  let rid =
    match ctx.obs with
    | None -> -1
    | Some o ->
      (* Restart marker: chained from the last pre-crash activity so the
         transparent re-fetch chain stays connected across the outage, and
         adopted as [last_act] so post-restart quanta chain from it. *)
      let rid, cargs =
        causal_marker o n ~name:"restart" ~seg:Dpa_obs.Causal.Refetch
          ~kind:Dpa_obs.Causal.Refetch_start ~parent:o.last_act
      in
      obs_instant
        ~args:
          (("refetches", Dpa_obs.Sink.Int (List.length outstanding))
          ::
          (match unacked with
          | [] -> cargs
          | l -> ("upd_resends", Dpa_obs.Sink.Int (List.length l)) :: cargs))
        o n ~name:"restart";
      if rid >= 0 then o.last_act <- rid;
      rid
  in
  let reissue () =
    List.iter
      (fun (id, (dst, batch)) ->
        ctx.stats.Dpa_stats.upd_reissues <-
          ctx.stats.Dpa_stats.upd_reissues + 1;
        send_update_batch ctx ~dst ~id batch;
        arm_update_timer ctx ~id
          ~rto:
            (rt_rto ctx
               ~bytes:
                 (Dpa_msg.Am.update_bytes ctx.machine
                    ~nupdates:(List.length batch))))
      unacked;
    List.iter
      (fun (token, ptr) ->
        Dpa_msg.Aggregator.add ctx.agg ~dst:(Gptr.node ptr) { token; ptr })
      outstanding;
    if Dpa_msg.Aggregator.pending ctx.agg > 0 then
      Dpa_msg.Aggregator.flush_all ctx.agg
  in
  (match ctx.obs with
  | Some o -> with_causal o rid reissue
  | None -> reissue ());
  ensure_scheduled ctx

(* Post one background event per crash window not yet behind us. The
   action double-checks that real work is still pending at the crash
   instant ([live_events]): a crash drawn past the phase's natural end is
   a no-op, it must not stretch the phase. The restart event is posted
   from inside the crash so it runs iff the crash did. *)
let post_crash_events ~engine ~plan ctxs =
  let phase_start = Engine.elapsed engine in
  Array.iter
    (fun ctx ->
      let id = ctx.node.Node.id in
      List.iter
        (fun (crash_at, restart_at) ->
          if crash_at >= phase_start then
            Engine.post_background engine ~time:crash_at ~node:id (fun () ->
                if Engine.live_events engine > 0 then begin
                  crash_node ctx ~plan ~restart_at;
                  Engine.post_background engine ~time:restart_at ~node:id
                    (fun () -> restart_node ctx ~restart_at)
                end))
        (Fault.crash_windows plan ~node:id))
    ctxs

let run_phase_labeled ~label ~engine ~heaps ~config ~items =
  let nodes = Engine.nodes engine in
  (match config.Config.route with
  | Config.Off -> ()
  | (Config.All_dsts | Config.Hot _) as r ->
    if not config.Config.reuse then
      invalid_arg "Runtime.run_phase: route requires reuse";
    (match r with
    | Config.Hot dsts ->
      List.iter
        (fun d ->
          if d >= Array.length nodes then
            invalid_arg "Runtime.run_phase: Hot route destination out of range")
        dsts
    | _ -> ()));
  Engine.barrier engine;
  Array.iter Node.reset_breakdown nodes;
  let start = Engine.elapsed engine in
  let journals =
    Array.init (Array.length nodes) (fun _ -> Hashtbl.create 32)
  in
  let jwals = Array.init (Array.length nodes) (fun _ -> Wal.create ()) in
  let ctxs =
    Array.map
      (fun node ->
        make_ctx ~engine ~heaps ~config ~items:(items node.Node.id) ~label
          ~journals ~jwals node)
      nodes
  in
  if config.Config.route <> Config.Off then
    Array.iter (fun ctx -> ctx.peers <- ctxs) ctxs;
  (* Corruption drops attributed to this phase: the transport's per-node
     counters persist across phases, so snapshot at the start and diff at
     the end. Empty until the first reliable send instantiates the state. *)
  let corrupt0 = Dpa_msg.Am.corrupt_dropped_per_node engine in
  Array.iter ensure_scheduled ctxs;
  (match Engine.fault engine with
  | Some plan when Fault.has_crashes plan ->
    post_crash_events ~engine ~plan ctxs
  | _ -> ());
  (* Fixed-rate counter tracks, opt-in via the sink's sample period. *)
  (match Engine.sink engine with
  | Some sink when Dpa_obs.Sink.sample_period_ns sink > 0 ->
    let period_ns = Dpa_obs.Sink.sample_period_ns sink in
    Engine.start_sampler engine ~period_ns ~name:"outstanding" (fun n ->
        ctxs.(n.Node.id).pending);
    Engine.start_sampler engine ~period_ns ~name:"dbuf" (fun n ->
        Align_buffer.size ctxs.(n.Node.id).buffer)
  | _ -> ());
  Engine.run engine;
  (* Quiescence certificate before the barrier clears D and M: with a
     fault plan active, no envelope may still await its ack — the event
     queue draining with in-flight envelopes would mean a retransmit timer
     was lost, i.e. a protocol bug, not bad luck. *)
  (if Engine.fault engine <> None then
     let infl = Dpa_msg.Am.in_flight engine in
     if infl > 0 then
       failwith
         (Printf.sprintf
            "Runtime.run_phase: %d unacknowledged messages at barrier" infl);
     (* Quiescence certified: every delivered copy has run and nothing can
        be retransmitted, so the receiver dedup tables are reclaimable.
        Without this they grow by one entry per envelope for the life of
        the engine. *)
     ignore (Dpa_msg.Am.prune_seen engine));
  Array.iter
    (fun ctx ->
      if
        not
          (ctx.finished && ctx.pending = 0
          && Pointer_map.is_empty ctx.map
          && Update_buffer.pending ctx.updates = 0
          && Update_buffer.pending ctx.relay = 0
          && Hashtbl.length ctx.relay_cover = 0
          && Hashtbl.length ctx.out_updates = 0)
      then
        failwith
          (Printf.sprintf
             "Runtime.run_phase: node %d did not quiesce (finished=%b, \
              pending=%d, map=%d, updates=%d, relay=%d, relay_cover=%d, \
              out_updates=%d)"
             (node_id ctx) ctx.finished ctx.pending
             (Pointer_map.outstanding ctx.map)
             (Update_buffer.pending ctx.updates)
             (Update_buffer.pending ctx.relay)
             (Hashtbl.length ctx.relay_cover)
             (Hashtbl.length ctx.out_updates));
      (* Integrity side of the certificate: every node that crashed ran
         its crash-anchored WAL recovery scan, and the durable log agrees
         with the drained in-memory image — no Batch record without its
         Acked. *)
      if Engine.fault engine <> None then begin
        if ctx.stats.Dpa_stats.crashes > 0 && not ctx.wal_scanned then
          failwith
            "Runtime.run_phase: crashed node reached the barrier without a \
             WAL integrity scan";
        let live = wal_live_batches ctx.wal in
        if live > 0 then
          failwith
            (Printf.sprintf
               "Runtime.run_phase: %d unacknowledged update batch(es) in the \
                WAL at barrier"
               live)
      end)
    ctxs;
  let elapsed_ns = Engine.elapsed engine - start in
  (* Per-node phase spans carry the node's own busy time (local+comm since
     the phase's breakdown reset) and sent bytes, feeding the profile's
     per-node skew table. Emitted before the closing barrier: the barrier
     flushes any attached stream writer, and these spans open at the phase
     start, so they must be sorted into this phase's flush segment. The
     barrier itself only charges idle, so the args are final here. *)
  (match Engine.sink engine with
  | None -> ()
  | Some sink ->
    (* Per-node communication optimality: bytes the node actually moved
       for this phase vs. its surface/volume-style lower bound — each
       unique remote object fetched once at its footprint, each unique
       accumulation target sent once at one update-entry (DESIGN.md §14).
       Attached to the phase spans for the profile's optimality table, and
       summed into the causal window's metadata for the critical-path
       report. *)
    let opt =
      Array.map
        (fun ctx ->
          match ctx.obs with
          | None -> (0, 0)
          | Some o ->
            let bound =
              Gptr.Tbl.fold (fun _ b acc -> acc + b) o.touched 0
              + (Hashtbl.length o.upd_touched
                * ctx.machine.Machine.update_entry_bytes)
            in
            (o.opt_actual, bound))
        ctxs
    in
    let cau = Dpa_obs.Sink.causal sink in
    (match cau with
    | None -> ()
    | Some c ->
      let actual = Array.fold_left (fun a (x, _) -> a + x) 0 opt in
      let bound = Array.fold_left (fun a (_, x) -> a + x) 0 opt in
      Dpa_obs.Causal.set_meta c ~label ~wall_ns:elapsed_ns ~opt_actual:actual
        ~opt_bound:bound);
    (* Per-node integrity tallies, stamped only under a fault plan so the
       faults-off event stream stays byte-identical: corruption drops this
       phase (snapshot delta — the transport counters outlive phases) and
       the WAL truncation/repair counts of the restart scans. *)
    let corrupt1 = Dpa_msg.Am.corrupt_dropped_per_node engine in
    let integrity_args (n : Node.t) =
      if Engine.fault engine = None then []
      else
        let at a = if n.Node.id < Array.length a then a.(n.Node.id) else 0 in
        let stats = ctxs.(n.Node.id).stats in
        [
          ("corrupt_dropped", Dpa_obs.Sink.Int (at corrupt1 - at corrupt0));
          ("wal_truncated", Dpa_obs.Sink.Int stats.Dpa_stats.wal_truncated);
          ("wal_repaired", Dpa_obs.Sink.Int stats.Dpa_stats.wal_repaired);
        ]
    in
    Array.iter
      (fun (n : Node.t) ->
        let actual, bound = opt.(n.Node.id) in
        let cargs =
          match cau with
          | None -> []
          | Some c ->
            [ ("span_id", Dpa_obs.Sink.Int (Dpa_obs.Causal.fresh c)) ]
        in
        Dpa_obs.Sink.span
          ~args:
            (("elapsed_ns", Dpa_obs.Sink.Int elapsed_ns)
            :: ("busy_ns", Dpa_obs.Sink.Int (n.Node.local_ns + n.Node.comm_ns))
            :: ("bytes", Dpa_obs.Sink.Int n.Node.bytes_sent)
            :: ("opt_actual_bytes", Dpa_obs.Sink.Int actual)
            :: ("opt_bound_bytes", Dpa_obs.Sink.Int bound)
            :: (integrity_args n @ cargs))
          sink ~cat:"phase" ~name:label ~node:n.Node.id ~ts:start
          ~dur:elapsed_ns)
      nodes);
  Engine.barrier engine;
  let breakdown = Breakdown.of_nodes ~elapsed_ns nodes in
  (* Record the strip size each node ended the phase with; static runs
     report their configured size so a clamped auto run's stats compare
     equal field-for-field. *)
  Array.iter
    (fun ctx ->
      ctx.stats.Dpa_stats.strip_size_final <-
        (match ctx.ctrl with
        | Some c -> c.size
        | None -> ctx.cfg.Config.strip_size))
    ctxs;
  let stats =
    Dpa_stats.merge (Array.to_list (Array.map (fun c -> c.stats) ctxs))
  in
  (match Engine.sink engine with
  | None -> ()
  | Some sink ->
    Dpa_obs.Sink.set_meta sink ("dpa_stats." ^ label) (Dpa_stats.to_json stats));
  (breakdown, stats)

let run_phase ~engine ~heaps ~config ~items =
  run_phase_labeled ~label:"phase" ~engine ~heaps ~config ~items
