open Dpa_sim
open Dpa_heap

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
  issued : Dpa_util.Index.t;  (* token -> issue timestamp *)
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
  upd_touched : Dpa_util.Index.t;
      (* unique update targets, by {!Update_buffer.key} *)
  mutable opt_actual : int;  (* request+update+reply+app-ack bytes *)
  (* Causal tracing (Sink.set_causal): the per-ctx cursor state linking
     scheduler activities into the happens-before DAG. *)
  cau : Dpa_obs.Causal.t option;
  mutable last_act : int;  (* previous quantum/marker on this node, -1 *)
  mutable wake_parents : int list;  (* wake markers awaiting the next quantum *)
  mutable strip_span : int;  (* causal span id of the open strip, -1 *)
  mutable prev_strip_span : int;
  mutable q_id : int;  (* the open quantum activity *)
  mutable q_parent : int;  (* its primary parent, stamped on its span *)
  mutable h_id : int;  (* the open handler activity *)
  mutable h_flight : int;  (* the flight that delivered it *)
  mutable h_start : int;  (* its owner's clock at open *)
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

(* The update batches that leave this node, each copied once into flat
   columns and kept for the rest of the phase: a message names its batch
   by number, and custody, re-sends and relay hops all read it here.
   Entries are an {!Update_buffer.key} column and a value column, covers
   the packed (origin, batch id) pairs whose custody a batch carries
   ({!cover}). Batches are recorded in the order their entries and covers
   are pushed, so batch [b] owns entries [s_first.(b)] up to
   [s_first.(b + 1)] and covers [s_cover.(b)] up to [s_cover.(b + 1)]. *)
type store = {
  mutable s_key : int array;
  mutable s_val : float array;
  mutable s_nent : int;
  mutable s_cov : int array;
  mutable s_ncov : int;
  mutable s_first : int array;
  mutable s_cover : int array;
  mutable s_nbat : int;
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
      (* flat ring of single threads (local reads, D hits) and woken
         waiter chains of M — the view IS the pointer ({!Heap.view}), so
         dispatch allocates nothing. A crash must re-register remote
         entries (the renamed copy is volatile) while local entries re-run
         against the durable heap. *)
  map : k Pointer_map.t;
  buffer : Align_buffer.t;
  mutable agg : Dpa_msg.Aggregator.t;  (* request tokens, per owner *)
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
  relay_cover : int array array;
  relay_ncover : int array;
      (* fault plans × routing: per final destination, the first
         [relay_ncover] packed (origin, batch id) pairs of its column are
         the batches merged into the relay bucket — the custody manifest
         that travels with every relay hop so the final owner can journal
         and ack each covered batch back to its origin. As volatile as the
         relay buffer itself; wiped together at a crash. *)
  store : store;
  mutable routing_done : bool;
      (* this node ran its finish-time routing flush; later relay arrivals
         must flush through instead of parking *)
  mutable peers : ctx array;
      (* every ctx of the phase, indexed by node id — how a hop delivery
         reaches the relay state of the receiving node. Set once by
         [run_phase_labeled]; empty while routing is off. *)
  mutable pending : int;  (* threads suspended in M or queued in [ready] *)
  label : string;  (* the phase's label, for the scheduler's failures *)
  mutable scheduled : bool;
  mutable quantum : unit -> unit;
      (* the poll-quantum event action, built once by [make_ctx]: posting
         it allocates no closure *)
  mutable on_request : Dpa_msg.Am.handler;
  mutable on_reply : Dpa_msg.Am.handler;
  mutable on_ack : Dpa_msg.Am.handler;
  mutable on_apply : Dpa_msg.Am.handler;
  mutable on_relay : Dpa_msg.Am.handler;
      (* this node's request-service, bulk-reply, update-ack, update-apply
         and relay-hop handlers, built once by [make_ctx]: a request and
         its reply are slab messages whose payload is the request array,
         an ack carries its batch id, and an update message the number of
         its batch in the sender's [store] ({!Dpa_msg.Am.send_data}) *)
  mutable items : (ctx -> unit) array;
  mutable next_item : int;
  mutable finished : bool;
  rel : bool;
      (* fault plan active: arm end-to-end request timeouts and accept
         duplicate bulk replies (idempotent wakes) *)
  timers : Timer_slab.t;
      (* this node's end-to-end timers: one per request message, one per
         unacked update batch, and the custody notifies of relay crashes *)
  mutable down_until : int;
      (* end of the node's current crash window; 0 when never crashed.
         The scheduler idles up to it before touching ready work, so no
         computation is charged inside a down window. *)
  mutable upd_next_id : int;
  mutable out_updates : int array;
  mutable out_live : int;
      (* by batch id, the [store] number of each update batch sent but not
         yet application-acked, -1 once acked; [out_live] counts the
         unacked. The durable WAL pointer the update timer re-sends from. *)
  upd_journal : Dpa_util.Index.t array;
      (* per owner node, shared by every ctx of the phase: the packed
         (src, batch id) pairs already applied to that owner's heap — the
         in-memory image of [jwal], rebuilt from it at restart. A re-sent
         batch is recognized across the owner's crashes and never
         double-applied. *)
  wal : Wal.t;
      (* this node's durable update-WAL: one Batch record per unacked
         batch in [out_updates], one Acked record per application-level
         ack. [out_updates] is only the in-memory image; a crash clears it
         and the restart walk rebuilds it from the checksum-scanned WAL. *)
  jwal : Wal.t array;
      (* per owner node, shared by every ctx of the phase: the durable
         image of [upd_journal] — one Applied record per fresh batch.
         Crash clears the owner's journal set; restart rebuilds it here. *)
  mutable wal_scanned : bool;
      (* the restart walk ran its WAL integrity scan — asserted by the
         quiescence certificate for every node that crashed *)
  ctrl : ctrl option;
  obs : obs option;
}

and k = ctx -> Heap.view -> unit

let node_id ctx = ctx.node.Node.id

(* Out of line, so [drain]'s loop carries no formatting code. *)
let[@inline never] dispatch_underflow ~node ~label =
  failwith
    (Printf.sprintf
       "Runtime.drain: node %d dispatched a thread with none pending \
        (phase %s)"
       node label)

let heaps ctx = ctx.heaps
let node ctx = ctx.node
let[@inline] charge ctx ns = Node.charge_local ctx.node ns

(* --- observability emission helpers ------------------------------------ *)

let obs_instant o (n : Node.t) ~name =
  Dpa_obs.Sink.instant o.sink ~cat:"runtime" ~name ~node:n.Node.id
    ~ts:n.Node.clock

let obs_int o key v = Dpa_obs.Sink.int o.sink key v

(* The span_id/parent args that tie an event to its causal DAG node; none
   with tracing off ([id] < 0). *)
let obs_ids o ~id ~parent =
  if id >= 0 then begin
    obs_int o "span_id" id;
    if parent >= 0 then obs_int o "parent" parent
  end

let obs_outstanding o (n : Node.t) pending =
  Dpa_obs.Sink.counter o.sink ~name:"outstanding" ~node:n.Node.id
    ~ts:n.Node.clock pending

let obs_strip_end o (n : Node.t) =
  if o.strip_open then begin
    o.strip_open <- false;
    Dpa_obs.Sink.span o.sink ~cat:"strip" ~name:"strip" ~node:n.Node.id
      ~ts:o.strip_start ~dur:(n.Node.clock - o.strip_start);
    obs_int o "strip" o.strip_id;
    obs_int o "items" o.strip_items;
    Dpa_obs.Sink.str o.sink "phase" o.label;
    (* Strip spans chain in the event stream only (span_id/parent args,
       previous strip as parent) — the causal DAG stays
       activity-granular. *)
    obs_ids o ~id:o.strip_span ~parent:o.prev_strip_span;
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
  if size > 0 then begin
    obs_instant o n ~name:"align_clear";
    obs_int o "evicted" size
  end

let obs_wait o (n : Node.t) token =
  let t0 = Dpa_util.Index.find o.issued token in
  if t0 >= 0 then begin
    Dpa_util.Index.remove o.issued token;
    Dpa_obs.Metrics.observe o.h_wait (n.Node.clock - t0)
  end

(* --- causal-tracing helpers -------------------------------------------- *)

(* Record a completed activity in the happens-before DAG and emit its span
   (cat "act") with span_id/parent args, so the JSONL stream and the DAG
   tell one story. Edges are the caller's business — an activity may have
   several (its Seq predecessor plus any number of Wake parents). *)
let obs_act o c ~id ~parent ~name ~seg (n : Node.t) ~ts ~dur =
  Dpa_obs.Causal.node ~seg c ~id ~ts ~dur;
  Dpa_obs.Sink.span o.sink ~cat:"act" ~name ~node:n.Node.id ~ts ~dur;
  obs_ids o ~id ~parent

(* Zero-duration marker node (wakes, timer re-issues, restart walks):
   records the DAG node and its incoming edge, and returns the id the
   caller stamps ({!obs_ids}) on the instant it emits. [-1] with tracing
   off. *)
let causal_marker o (n : Node.t) ~seg ~kind ~parent =
  match o.cau with
  | None -> -1
  | Some c ->
    let id = Dpa_obs.Causal.fresh c in
    Dpa_obs.Causal.node ~seg c ~id ~ts:n.Node.clock ~dur:0;
    Dpa_obs.Causal.edge c ~kind ~parent ~child:id;
    id

(* A timer's re-issue: the [name] instant, naming what it re-issues
   ([key] = [v]) and where. Timer firings run outside any quantum: its
   Retry marker, returned, keeps the re-issued flight's chain grounded in
   this node's activity history instead of dangling. *)
let retry_marker o (n : Node.t) ~name ~key v ~dst =
  let rid =
    causal_marker o n ~seg:Dpa_obs.Causal.Retransmit ~kind:Dpa_obs.Causal.Retry
      ~parent:o.last_act
  in
  obs_instant o n ~name;
  obs_int o key v;
  obs_int o "dst" dst;
  obs_ids o ~id:rid ~parent:o.last_act;
  rid

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
    assert (o.h_id < 0);
    let fid = Dpa_obs.Causal.current c in
    let sid = Dpa_obs.Causal.fresh c in
    Dpa_obs.Causal.edge c ~kind:Dpa_obs.Causal.Deliver ~parent:fid ~child:sid;
    Dpa_obs.Causal.set_current c sid;
    o.h_id <- sid;
    o.h_flight <- fid;
    o.h_start <- owner.Node.clock
  | _ -> ()

(* Handlers run to completion inside one delivery event, so one open
   activity per ctx is all the state needed; the asserts check that no
   handler activity nests in another or closes unopened. *)
let close_handler_act ctx ~name (owner : Node.t) =
  match ctx.obs with
  | Some ({ cau = Some c; _ } as o) ->
    assert (o.h_id >= 0);
    obs_act o c ~id:o.h_id ~parent:o.h_flight ~name
      ~seg:Dpa_obs.Causal.Compute owner ~ts:o.h_start
      ~dur:(owner.Node.clock - o.h_start);
    o.h_id <- -1
  | _ -> ()

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

(* --- batches in flight ---------------------------------------------------- *)

let store_create () =
  {
    s_key = [||];
    s_val = [||];
    s_nent = 0;
    s_cov = [||];
    s_ncov = 0;
    s_first = [| 0 |];
    s_cover = [| 0 |];
    s_nbat = 0;
  }

(* A copy of [a] with room for at least [n] elements; [fill] pads it. *)
let grown a n fill =
  let a' = Array.make (max 16 (max n (2 * Array.length a))) fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* Room for [n] more entries; returns the first. *)
let store_entries s n =
  let first = s.s_nent in
  if first + n > Array.length s.s_key then begin
    s.s_key <- grown s.s_key (first + n) 0;
    s.s_val <- grown s.s_val (first + n) 0.
  end;
  s.s_nent <- first + n;
  first

(* Copy a flushed batch into the entry columns. *)
let store_view s batch =
  let first = store_entries s (Update_buffer.batch_length batch) in
  Update_buffer.blit_batch batch ~keys:s.s_key ~vals:s.s_val ~pos:first

let store_cover s pair =
  if s.s_ncov = Array.length s.s_cov then
    s.s_cov <- grown s.s_cov (s.s_ncov + 1) 0;
  s.s_cov.(s.s_ncov) <- pair;
  s.s_ncov <- s.s_ncov + 1

(* Record the next batch: the [len] entries after the last batch's, and
   every cover pushed since. Returns its number. *)
let store_batch s ~len =
  let b = s.s_nbat in
  if b + 2 > Array.length s.s_first then begin
    s.s_first <- grown s.s_first (b + 2) 0;
    s.s_cover <- grown s.s_cover (b + 2) 0
  end;
  s.s_first.(b + 1) <- s.s_first.(b) + len;
  s.s_cover.(b + 1) <- s.s_ncov;
  s.s_nbat <- b + 1;
  b

let bat_first s b = s.s_first.(b)
let bat_len s b = s.s_first.(b + 1) - s.s_first.(b)
let bat_cover s b = s.s_cover.(b)
let bat_ncover s b = s.s_cover.(b + 1) - s.s_cover.(b)

(* Every entry of a batch updates an object on the batch's final
   destination. *)
let bat_fdst s b = Update_buffer.key_node s.s_key.(s.s_first.(b))

(* A batch's custody name, (origin node, batch id), packed into one
   non-negative int whose order is the pairs' lexicographic order. *)
let cover ~src ~id = (src lsl 40) lor id
let cover_src pair = pair lsr 40
let cover_id pair = pair land ((1 lsl 40) - 1)

(* --- durable-log codecs ------------------------------------------------- *)

(* Byte codecs for the WAL record payloads ({!Wal}), written straight into
   the log image. Every record leads with a tag byte; integers are 64-bit
   little-endian; floats travel as their IEEE bits. Ids are monotone per
   sender/owner, so no two consecutive records of one log are ever
   byte-identical — the property Wal's doublewrite repair relies on. *)

let tag_batch = 'B'
let tag_acked = 'A'
let tag_applied = 'J'

let put_i64 b ~pos v = Bytes.set_int64_le b pos (Int64.of_int v)
let get_i64 b ~pos = Int64.to_int (Bytes.get_int64_le b pos)

(* Batch: id, entry count, then per entry the packed
   {!Update_buffer.key} and the value. *)
let wal_batch wal ~id s sb =
  let first = bat_first s sb and n = bat_len s sb in
  let pos = Wal.reserve wal (17 + (n * 16)) in
  let b = Wal.image wal in
  Bytes.set b pos tag_batch;
  put_i64 b ~pos:(pos + 1) id;
  put_i64 b ~pos:(pos + 9) n;
  for i = 0 to n - 1 do
    let e = first + i and base = pos + 17 + (i * 16) in
    put_i64 b ~pos:base s.s_key.(e);
    Bytes.set_int64_le b (base + 8) (Int64.bits_of_float s.s_val.(e))
  done;
  Wal.commit wal

let wal_acked wal ~id =
  let pos = Wal.reserve wal 9 in
  let b = Wal.image wal in
  Bytes.set b pos tag_acked;
  put_i64 b ~pos:(pos + 1) id;
  Wal.commit wal

let wal_applied wal pair =
  let pos = Wal.reserve wal 17 in
  let b = Wal.image wal in
  Bytes.set b pos tag_applied;
  put_i64 b ~pos:(pos + 1) (cover_src pair);
  put_i64 b ~pos:(pos + 9) (cover_id pair);
  Wal.commit wal

(* Decoding only ever reads records [Wal.fold] has already checksum-
   verified, so a malformed record here is a codec bug, not damage. *)
let bad_tag t = invalid_arg (Printf.sprintf "Runtime: bad update-WAL tag %C" t)

(* The batches an update WAL still holds unacknowledged — every Batch
   record no Acked record follows — as batch id -> payload offset. *)
let wal_live wal =
  let live = Dpa_util.Index.create ~log2:4 in
  Wal.fold wal
    (fun b pos _ () ->
      let id = get_i64 b ~pos:(pos + 1) in
      match Bytes.get b pos with
      | t when t = tag_batch -> Dpa_util.Index.add live id pos
      | t when t = tag_acked -> Dpa_util.Index.remove live id
      | t -> bad_tag t)
    ();
  live

(* Copy the Batch record at [pos] of [b] back into the store under origin
   [src]'s custody; returns its batch number. *)
let decode_batch s ~src b pos =
  let n = get_i64 b ~pos:(pos + 9) in
  let first = store_entries s n in
  for i = 0 to n - 1 do
    let base = pos + 17 + (i * 16) in
    s.s_key.(first + i) <- get_i64 b ~pos:base;
    s.s_val.(first + i) <- Int64.float_of_bits (Bytes.get_int64_le b (base + 8))
  done;
  store_cover s (cover ~src ~id:(get_i64 b ~pos:(pos + 1)));
  store_batch s ~len:n

(* Rebuild an owner's applied-batch journal from its durable image. *)
let replay_journal jwal journal =
  Wal.fold jwal
    (fun b pos _ () ->
      if Bytes.get b pos <> tag_applied then
        invalid_arg "Runtime: bad journal tag";
      Dpa_util.Index.add journal
        (cover ~src:(get_i64 b ~pos:(pos + 1)) ~id:(get_i64 b ~pos:(pos + 9)))
        0)
    ()

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
        Dpa_obs.Sink.instant o.sink ~cat:"ctrl" ~name:"strip_resize"
          ~node:ctx.node.Node.id ~ts:ctx.node.Node.clock;
        obs_int o "from" old_size;
        obs_int o "to" c.size;
        obs_int o "d_end" d_end;
        obs_int o "idle_ns" idle;
        obs_int o "elapsed_ns" elapsed
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

(* --- custody: the unacked batches, by id --------------------------------- *)

(* The store number of unacked batch [id], or -1. *)
let unacked ctx id =
  if id < Array.length ctx.out_updates then ctx.out_updates.(id) else -1

let set_unacked ctx id sb =
  if id >= Array.length ctx.out_updates then
    ctx.out_updates <- grown ctx.out_updates (id + 1) (-1);
  if ctx.out_updates.(id) < 0 then ctx.out_live <- ctx.out_live + 1;
  ctx.out_updates.(id) <- sb

let clear_unacked ctx id =
  if unacked ctx id >= 0 then begin
    ctx.out_updates.(id) <- -1;
    ctx.out_live <- ctx.out_live - 1
  end

(* Final destinations with a custody manifest parked in the relay
   buffer. *)
let relay_covers ctx =
  Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 ctx.relay_ncover

(* --- scheduler -------------------------------------------------------- *)

let rec ensure_scheduled ctx =
  if not ctx.scheduled then begin
    ctx.scheduled <- true;
    Engine.post ctx.engine ~kind:Engine.Work ~time:ctx.node.Node.clock
      ~node:ctx.node.Node.id ctx.quantum
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
     or artifact_check would count a dangling edge. *)
  (match ctx.obs with
  | Some ({ cau = Some c; _ } as o) ->
    assert (o.q_id < 0);
    let aid = Dpa_obs.Causal.fresh c in
    o.q_id <- aid;
    o.q_parent <-
      (if o.last_act >= 0 then o.last_act
       else match o.wake_parents with w :: _ -> w | [] -> -1);
    Dpa_obs.Causal.edge c ~kind:Dpa_obs.Causal.Seq ~parent:o.last_act
      ~child:aid;
    wake_edges c aid o.wake_parents;
    o.wake_parents <- [];
    Dpa_obs.Causal.set_current c aid
  | _ -> ());
  drain ctx start quantum;
  (* A quantum's drain never runs another quantum of its node (the next
     one is a posted event), so the open activity is still [q_id]; the
     asserts check it. *)
  match ctx.obs with
  | Some ({ cau = Some c; _ } as o) ->
    assert (o.q_id >= 0);
    Dpa_obs.Causal.set_current c (-1);
    obs_act o c ~id:o.q_id ~parent:o.q_parent ~name:"quantum"
      ~seg:Dpa_obs.Causal.Compute ctx.node ~ts:start
      ~dur:(ctx.node.Node.clock - start);
    o.last_act <- o.q_id;
    o.q_id <- -1
  | _ -> ()

and wake_edges c aid = function
  | [] -> ()
  | w :: rest ->
    Dpa_obs.Causal.edge c ~kind:Dpa_obs.Causal.Wake ~parent:w ~child:aid;
    wake_edges c aid rest

(* Dispatch ready threads one at a time until the ring empties or the
   quantum opened at [start] is spent. A chain entry (a token's woken
   waiters, still in M) is walked in registration order, one thread per
   iteration, so the dispatch charge and the quantum check stay per
   thread; a chain cut by the quantum keeps its cursor at the ring head. *)
and drain ctx start quantum =
  if Ready_ring.is_empty ctx.ready then after_drain ctx
  else if ctx.node.Node.clock - start >= quantum then ensure_scheduled ctx
  else begin
    let ptr = Ready_ring.head_ptr ctx.ready in
    let cell = Ready_ring.head_cell ctx.ready in
    let k =
      if cell < 0 then begin
        let k = Ready_ring.head_k ctx.ready in
        Ready_ring.drop ctx.ready;
        k
      end
      else begin
        let k = Pointer_map.waiter ctx.map cell in
        let next = Pointer_map.pop_waiter ctx.map cell in
        if next < 0 then Ready_ring.drop ctx.ready
        else Ready_ring.set_head_cell ctx.ready next;
        k
      end
    in
    Node.charge_comm ctx.node ctx.machine.Machine.dispatch_overhead_ns;
    if ctx.pending <= 0 then
      dispatch_underflow ~node:ctx.node.Node.id ~label:ctx.label;
    ctx.pending <- ctx.pending - 1;
    k ctx ptr;
    drain ctx start quantum
  end

and after_drain ctx =
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
   pointer. Threads waiting on the same object are enqueued as one chain
   entry, so they execute together — the tiling effect.

   Under a fault plan wakes must be idempotent: an end-to-end retry can
   produce a second bulk reply for a token the first copy already
   resolved, and that copy must wake nothing (and must not repopulate the
   alignment buffer — its strip may be long gone). Fault-free, an unknown
   token is still the hard protocol error it always was. M hands each
   token's woken waiter chain to the ready ring as one entry. [msg] is
   the request message the reply answers (see [flush_requests]). *)
and deliver ctx msg =
  let nreqs = Array.length msg / 2 in
  for i = 0 to nreqs - 1 do
    let token = msg.(2 * i) in
    let ptr =
      if ctx.rel then Pointer_map.take_or_nil ctx.map token ctx.ready
      else Pointer_map.take ctx.map token ctx.ready
    in
    if Gptr.is_nil ptr then (
      match ctx.obs with
      | None -> ()
      | Some o -> obs_instant o ctx.node ~name:"dup_wake")
    else begin
      (match ctx.obs with
      | None -> ()
      | Some o ->
        obs_wait o ctx.node token;
        Gptr.Tbl.replace o.touched ptr (Heap.view_bytes ctx.heaps ptr));
      if ctx.cfg.Config.reuse then Align_buffer.add ctx.buffer ptr
    end
  done;
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
    let parent =
      match o.cau with Some c -> Dpa_obs.Causal.current c | None -> -1
    in
    let wid =
      causal_marker o ctx.node ~seg:Dpa_obs.Causal.Other
        ~kind:Dpa_obs.Causal.Deliver ~parent
    in
    if wid >= 0 then o.wake_parents <- wid :: o.wake_parents;
    obs_instant o ctx.node ~name:"wake";
    obs_int o "replies" nreqs;
    obs_ids o ~id:wid ~parent;
    obs_outstanding o ctx.node ctx.pending);
  ensure_scheduled ctx

(* End-to-end timers, the second defence layer above the transport's
   per-message retransmission. The transport alone already guarantees
   delivery, so timers that find work left are rare (a deeply backlogged
   owner, a crash); a spurious one only produces a duplicate that
   [deliver] or the owner's journal discards. Every timer lives in the
   node's {!Timer_slab}, fenced to the incarnation that armed it, and
   backs off by the slab's one rule. *)
and rt_rto ctx ~bytes =
  let m = ctx.machine in
  let const = 8 * Dpa_msg.Am.initial_rto m ~bytes in
  (* Under [adaptive_rto] the constant worst-case formula is only the
     floor: once the transport's estimator has seen full delivery round
     trips — retransmission recovery included — twice that estimate is a
     far better picture of how long "still outstanding" can innocently
     last (e.g. across an injected NIC outage), and using it stops the
     wheel from re-issuing requests the transport was already
     recovering. *)
  if m.Machine.adaptive_rto then Dpa_msg.Am.e2e_rto ctx.engine ~fallback:const
  else const

and on_timer ctx kind ~id ~dst ~rto ~deadline msg =
  match kind with
  | Timer_slab.Request ->
    (* One timer covers a request message: each of its tokens still
       outstanding in M at the deadline is re-issued, in message order, as
       a single-entry request with its own timer. *)
    for i = 0 to (Array.length msg / 2) - 1 do
      let token = msg.(2 * i) in
      let ptr = Pointer_map.token_ptr ctx.map token in
      if not (Gptr.is_nil ptr) then
        reissue_request ctx ~dst ~token ~rto ~deadline ptr
    done
  | Timer_slab.Update ->
    (* Acked in time: a pure no-op, clock untouched. *)
    let sb = unacked ctx id in
    if sb >= 0 then begin
      Node.wait_until ctx.node deadline;
      ctx.stats.Dpa_stats.upd_reissues <- ctx.stats.Dpa_stats.upd_reissues + 1;
      let cap = 1024 * rt_rto ctx ~bytes:(batch_bytes ctx sb) in
      let rto = Timer_slab.backoff ~rto ~cap in
      match ctx.obs with
      | None -> resend_update ctx ~id ~rto sb
      | Some o ->
        let dst = bat_fdst ctx.store sb in
        let rid = retry_marker o ctx.node ~name:"upd_retry" ~key:"id" id ~dst in
        with_causal o rid (fun () -> resend_update ctx ~id ~rto sb)
    end
  | Timer_slab.Custody ->
    (* Skipped if the batch was acked meanwhile (a copy survived the
       tree). The origin may itself be down: it re-issues once it is back. *)
    let sb = unacked ctx id in
    if sb >= 0 then begin
      Node.wait_until ctx.node (Int.max deadline ctx.down_until);
      ctx.stats.Dpa_stats.routed_reissues <-
        ctx.stats.Dpa_stats.routed_reissues + 1;
      resend_update ctx ~id ~rto:0 sb
    end
  | Timer_slab.Fetch -> assert false

and reissue_request ctx ~dst ~token ~rto ~deadline ptr =
  Node.wait_until ctx.node deadline;
  ctx.stats.Dpa_stats.rt_retries <- ctx.stats.Dpa_stats.rt_retries + 1;
  let msg = [| token; Gptr.slot ptr |] in
  (match ctx.obs with
  | None -> send_request_batch ctx ~dst msg
  | Some o ->
    Dpa_obs.Metrics.add o.c_retry 1;
    let rid = retry_marker o ctx.node ~name:"retry" ~key:"token" token ~dst in
    with_causal o rid (fun () -> send_request_batch ctx ~dst msg));
  let cap =
    1024 * rt_rto ctx ~bytes:(Dpa_msg.Am.request_bytes ctx.machine ~nreqs:1)
  in
  Timer_slab.arm ctx.timers Timer_slab.Request ~id:0 ~dst
    ~rto:(Timer_slab.backoff ~rto ~cap) msg

(* One request message is one int array: entry [i]'s token at [2i] and
   the slot it reads on [dst] at [2i + 1] (the owner is [dst], so the slot
   names the pointer). The aggregator buffers tokens only; each token is
   still outstanding in M until its batch leaves, so the pointer comes
   from there. *)
and flush_requests ctx ~dst batch =
  let nreqs = Dpa_msg.Aggregator.batch_length batch in
  let msg = Array.make (2 * nreqs) 0 in
  for i = 0 to nreqs - 1 do
    let token = Dpa_msg.Aggregator.batch_get batch i in
    let ptr = Pointer_map.token_ptr ctx.map token in
    if Gptr.is_nil ptr then
      failwith
        (Printf.sprintf
           "Runtime.flush_requests: node %d flushed token %d for node %d, \
            which is not outstanding"
           (node_id ctx) token dst);
    msg.(2 * i) <- token;
    msg.((2 * i) + 1) <- Gptr.slot ptr
  done;
  let stats = ctx.stats in
  stats.Dpa_stats.request_msgs <- stats.Dpa_stats.request_msgs + 1;
  stats.Dpa_stats.requests <- stats.Dpa_stats.requests + nreqs;
  if nreqs > stats.Dpa_stats.max_batch then stats.Dpa_stats.max_batch <- nreqs;
  (match ctx.obs with
  | None -> ()
  | Some o ->
    let bytes = Dpa_msg.Am.request_bytes ctx.machine ~nreqs in
    Dpa_obs.Metrics.add o.c_vol.(dst) bytes;
    obs_instant o ctx.node ~name:"req_send";
    obs_int o "dst" dst;
    obs_int o "nreqs" nreqs;
    obs_int o "bytes" bytes);
  send_request_batch ctx ~dst msg;
  if ctx.rel then
    Timer_slab.arm ctx.timers Timer_slab.Request ~id:0 ~dst
      ~rto:(rt_rto ctx ~bytes:(Dpa_msg.Am.request_bytes ctx.machine ~nreqs))
      msg

and send_request_batch ctx ~dst msg =
  let nreqs = Array.length msg / 2 in
  let bytes = Dpa_msg.Am.request_bytes ctx.machine ~nreqs in
  (* Optimality numerator: every wire-out counts, wheel re-issues
     included — that surplus is exactly what the ratio exposes. *)
  (match ctx.obs with
  | None -> ()
  | Some o -> o.opt_actual <- o.opt_actual + bytes);
  Dpa_msg.Am.send_data ctx.engine ~src:ctx.node ~dst ~bytes ctx.on_request 0 0
    msg

(* Owner-side service handler: look the objects up and ship them back in
   one bulk reply. This steals owner CPU, as an FM handler does. Built
   once per ctx ([on_request]); the reply carries the request array back
   to [ctx.on_reply], which delivers it. *)
and serve ctx owner msg =
  let m = ctx.machine in
  let nreqs = Array.length msg / 2 in
  open_handler_act ctx owner;
  Node.charge_comm owner
    (m.Machine.request_service_ns
    + (nreqs * m.Machine.request_service_per_obj_ns));
  (* Payload is accounting only: the wire carries the objects' byte
     footprint, and the delivered views alias the owner's store — no
     copy-out here. *)
  let owner_heap = ctx.heaps.(owner.Node.id) in
  let payload = ref 0 in
  for i = 0 to nreqs - 1 do
    let ptr = Gptr.make ~node:owner.Node.id ~slot:msg.((2 * i) + 1) in
    payload := !payload + Heap.obj_bytes owner_heap ptr
  done;
  let reply = Dpa_msg.Am.reply_bytes m ~payload:!payload ~nreqs in
  (match ctx.obs with
  | None -> ()
  | Some o ->
    o.opt_actual <- o.opt_actual + reply;
    Dpa_obs.Metrics.add o.c_reply reply;
    Dpa_obs.Sink.instant o.sink ~cat:"msg" ~name:"bulk_reply"
      ~node:owner.Node.id ~ts:owner.Node.clock;
    obs_int o "to" ctx.node.Node.id;
    obs_int o "nreqs" nreqs;
    obs_int o "bytes" reply);
  Dpa_msg.Am.send_data ctx.engine ~src:owner ~dst:ctx.node.Node.id ~bytes:reply
    ctx.on_reply 0 0 msg;
  close_handler_act ctx ~name:"service" owner

and batch_bytes ctx sb =
  Dpa_msg.Am.update_bytes ctx.machine ~nupdates:(bat_len ctx.store sb)

(* The flush of [ctx.updates]: every batch is copied into the store once.
   Routed destinations drain into the relay buffer (merging with parked
   downstream contributions) instead of going to the wire;
   [finish_routing] then forwards the combined result. Under a fault plan
   the batch first takes origin custody — WAL record, [out_updates]
   entry, end-to-end timer — so a crash anywhere on its tree path is
   recoverable. *)
and flush_accumulates ctx ~dst batch =
  let len = Update_buffer.batch_length batch in
  store_view ctx.store batch;
  if route_on ctx dst then
    if ctx.rel then take_custody ctx ~dst ~len
    else relay_receive ctx ~from:ctx (store_batch ctx.store ~len)
  else flush_updates ctx ~dst ~len

(* A flat update message of the next [len] stored entries. *)
and flush_updates ctx ~dst ~len =
  ctx.stats.Dpa_stats.update_msgs <- ctx.stats.Dpa_stats.update_msgs + 1;
  (match ctx.obs with
  | None -> ()
  | Some o ->
    let bytes = Dpa_msg.Am.update_bytes ctx.machine ~nupdates:len in
    Dpa_obs.Metrics.add o.c_vol.(dst) bytes;
    obs_instant o ctx.node ~name:"upd_send";
    obs_int o "dst" dst;
    obs_int o "nupdates" len;
    obs_int o "bytes" bytes);
  if ctx.rel then take_custody ctx ~dst ~len
  else send_batch ctx (store_batch ctx.store ~len)

(* Origin custody for an update batch under a fault plan: end-to-end
   exactly-once for accumulations. The transport's dedup is per
   incarnation, so a crash on either end could double- or zero-apply a
   batch: an owner crash forgets that a retransmitted batch already ran, a
   sender crash destroys an undelivered envelope. Each batch therefore
   gets a stable id, carried as its one cover, and a write-ahead Batch
   record — durable before the first copy leaves, so a crash between here
   and the ack can always rebuild the batch from the scanned WAL — and an
   [out_updates] entry the quiescence certificate watches; the owner
   journals applied ids durably ([owner_apply]); and the batch's fenced
   timer re-sends it until the application-level ack clears it.

   A flat batch goes straight to its owner. A routed batch enters the
   combining tree instead: if the tree delivers, the final owner journals
   the covered id and acks end to end; if any hop crashes while holding it
   (or the ack never comes), a custody notify or the timer re-issues the
   batch straight-line, where the owner's journal dedups it against any
   copy that survived the tree. Its timer budget is scaled by the tree
   depth: a parked batch legitimately waits for every hop on its path to
   finish its own items. *)
and take_custody ctx ~dst ~len =
  let s = ctx.store in
  let id = ctx.upd_next_id in
  ctx.upd_next_id <- id + 1;
  store_cover s (cover ~src:(node_id ctx) ~id);
  let sb = store_batch s ~len in
  wal_batch ctx.wal ~id s sb;
  set_unacked ctx id sb;
  let rto = rt_rto ctx ~bytes:(batch_bytes ctx sb) in
  if route_on ctx dst then begin
    let hops =
      Dpa_msg.Route.hops ~nnodes:(Array.length ctx.heaps) ~src:(node_id ctx)
        ~dst
    in
    Timer_slab.arm ctx.timers Timer_slab.Update ~id ~dst
      ~rto:((hops + 1) * rto) [||];
    relay_receive ctx ~from:ctx sb
  end
  else resend_update ctx ~id ~rto sb

(* Send unacked batch [id] (stored as [sb]) straight to its owner: its
   first flat send and every re-issue (its timer, a relay crash's custody
   notify, the restart walk). [rto > 0] arms the batch's timer for the
   copy. *)
and resend_update ctx ~id ~rto sb =
  send_batch ctx sb;
  if rto > 0 then
    Timer_slab.arm ctx.timers Timer_slab.Update ~id
      ~dst:(bat_fdst ctx.store sb) ~rto [||]

and send_batch ctx sb =
  let bytes = batch_bytes ctx sb in
  (match ctx.obs with
  | None -> ()
  | Some o -> o.opt_actual <- o.opt_actual + bytes);
  Dpa_msg.Am.send_data ctx.engine ~src:ctx.node ~dst:(bat_fdst ctx.store sb)
    ~bytes ctx.on_apply sb 0 [||]

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

(* A routed batch — batch [sb] of [from]'s store — arriving at an
   intermediate node: park and combine in the relay buffer keyed by final
   destination. After the node's own routing flush has run, there is
   nothing left to merge with — flush straight through so quiescence
   holds. Under a fault plan the batch's custody manifest, its covers,
   parks alongside it (and leaves with it), so the merged entries never
   lose track of which origin-anchored batches they carry. *)
and relay_receive ctx ~from sb =
  let s = from.store in
  let fdst = bat_fdst s sb in
  let nc = bat_ncover s sb in
  if nc > 0 then begin
    let have = ctx.relay_ncover.(fdst) in
    if have + nc > Array.length ctx.relay_cover.(fdst) then
      ctx.relay_cover.(fdst) <- grown ctx.relay_cover.(fdst) (have + nc) 0;
    Array.blit s.s_cov (bat_cover s sb) ctx.relay_cover.(fdst) have nc;
    ctx.relay_ncover.(fdst) <- have + nc
  end;
  let first = bat_first s sb in
  for e = first to first + bat_len s sb - 1 do
    let k = s.s_key.(e) in
    Update_buffer.add ctx.relay ~dst:fdst (Update_buffer.key_ptr k)
      ~idx:(Update_buffer.key_idx k) s.s_val.(e)
  done;
  if ctx.routing_done then Update_buffer.flush_if ctx.relay (fun d -> d = fdst)

(* Forward one relay bucket toward its final destination, one binomial-tree
   hop closer ({!Dpa_msg.Route.next_hop}), where it parks in the hop's
   relay buffer. Intermediate hops ride the transport's link-level
   reliability (retransmit + dedup cover drop, dup and delay faults);
   crash faults are covered end-to-end by the origins' custody — every
   batch merged into this bucket stays in its origin's [out_updates] until
   the final owner's application-level ack, so a hop crash only costs a
   straight-line re-issue.

   Fault-free, the bucket fragments to the aggregation bound like any flat
   message — each fragment a stored batch over its slice of the bucket's
   one copy — and its last hop is the flat update path. Under a fault plan
   it does not: the (covers, merged entries) pair is one atomic custody
   unit — a fragment boundary through it would let the owner journal a
   covered batch whose entries were split across fragments, and a lost
   second fragment would then be unrecoverable. *)
and relay_forward ctx ~fdst batch =
  let nnodes = Array.length ctx.heaps in
  let hop = Dpa_msg.Route.next_hop ~nnodes ~src:(node_id ctx) ~dst:fdst in
  let s = ctx.store in
  let n = Update_buffer.batch_length batch in
  store_view s batch;
  if ctx.rel then begin
    let nc = ctx.relay_ncover.(fdst) in
    assert (nc > 0);
    for c = 0 to nc - 1 do
      store_cover s ctx.relay_cover.(fdst).(c)
    done;
    ctx.relay_ncover.(fdst) <- 0;
    send_relay ctx ~hop (store_batch s ~len:n)
  end
  else begin
    let left = ref n in
    while !left > 0 do
      let len = min ctx.cfg.Config.agg_max !left in
      if hop = fdst then flush_updates ctx ~dst:fdst ~len
      else send_relay ctx ~hop (store_batch s ~len);
      left := !left - len
    done
  end

and send_relay ctx ~hop sb =
  let s = ctx.store in
  let n = bat_len s sb and nc = bat_ncover s sb and fdst = bat_fdst s sb in
  ctx.stats.Dpa_stats.update_msgs <- ctx.stats.Dpa_stats.update_msgs + 1;
  (* The custody manifest rides the message: two ids per covered batch. *)
  let bytes = Dpa_msg.Am.update_bytes ctx.machine ~nupdates:n + (16 * nc) in
  (match ctx.obs with
  | None -> ()
  | Some o ->
    Dpa_obs.Metrics.add o.c_vol.(hop) bytes;
    (* Actual bytes are charged at every hop's sender; the lower bound is
       recorded at the origin only ([accumulate]), so tree routing can only
       close the gap when combining saves more than the extra hops cost. *)
    o.opt_actual <- o.opt_actual + bytes;
    obs_instant o ctx.node ~name:"relay_send";
    obs_int o "hop" hop;
    obs_int o "fdst" fdst;
    obs_int o "nupdates" n;
    if nc > 0 then obs_int o "cover" nc;
    obs_int o "bytes" bytes);
  Dpa_msg.Am.send_data ctx.engine ~src:ctx.node ~dst:hop ~bytes
    (if hop = fdst then ctx.on_apply else ctx.on_relay)
    sb 0 [||]

(* A relay hop's delivery on [hopnode]: batch [sb] of this node's store
   parks in the hop's relay buffer. *)
and relay_hop ctx sb hopnode =
  open_handler_act ctx hopnode;
  Node.charge_comm hopnode
    (bat_len ctx.store sb * ctx.machine.Machine.update_apply_ns);
  relay_receive ctx.peers.(hopnode.Node.id) ~from:ctx sb;
  close_handler_act ctx ~name:"relay" hopnode

(* Owner-side apply of update message [sb], a batch of this (sending)
   node's store, on its final destination [owner]. The apply cost is
   charged whether or not the batch is fresh: a journal hit still parses
   the message and probes the journal. The batch's covers name every
   origin-anchored batch whose entries are numerically merged into it
   (none fault-free, one for a flat batch), so freshness is
   all-or-nothing: if every covered batch is fresh, journal them all —
   the durable Applied record is what survives the owner's crash — and
   apply the entries as one atomic action, then ack each origin; if ANY
   covered batch was already applied (a straight-line replay beat the
   tree), the merged entries cannot be applied — nor split — so nothing
   applies, the already-journaled pairs are re-acked (their previous acks
   may have been lost), and each fresh pair is left to its origin's
   timer, whose straight-line re-issue is single-origin and therefore can
   never be partially duplicate. The fixed-point grids make the recovered
   sum bit-identical either way. *)
and owner_apply ctx sb owner =
  let m = ctx.machine and s = ctx.store in
  let fdst = bat_fdst s sb in
  let first = bat_first s sb and n = bat_len s sb in
  let c0 = bat_cover s sb and nc = bat_ncover s sb in
  open_handler_act ctx owner;
  Node.charge_comm owner (n * m.Machine.update_apply_ns);
  let journal = ctx.upd_journal.(fdst) in
  let fresh = ref true in
  for c = c0 to c0 + nc - 1 do
    if Dpa_util.Index.mem journal s.s_cov.(c) then fresh := false
  done;
  if !fresh then begin
    for c = c0 to c0 + nc - 1 do
      wal_applied ctx.jwal.(fdst) s.s_cov.(c);
      Dpa_util.Index.add journal s.s_cov.(c) 0
    done;
    let owner_heap = ctx.heaps.(fdst) in
    let pool = Heap.float_pool owner_heap in
    for e = first to first + n - 1 do
      let k = s.s_key.(e) in
      let o =
        Heap.float_index owner_heap (Update_buffer.key_ptr k)
          ~idx:(Update_buffer.key_idx k)
      in
      Bigarray.Array1.set pool o (Bigarray.Array1.get pool o +. s.s_val.(e))
    done
  end;
  (* Every journaled pair is acked: all of them after a fresh apply, the
     duplicates otherwise. *)
  let ack = m.Machine.msg_header_bytes in
  for c = c0 to c0 + nc - 1 do
    let pair = s.s_cov.(c) in
    if Dpa_util.Index.mem journal pair then begin
      (match ctx.obs with
      | None -> ()
      | Some o -> o.opt_actual <- o.opt_actual + ack);
      let src = cover_src pair in
      let origin = if src = node_id ctx then ctx else ctx.peers.(src) in
      Dpa_msg.Am.send_data ctx.engine ~src:owner ~dst:src ~bytes:ack
        origin.on_ack (cover_id pair) 0 [||]
    end
  done;
  close_handler_act ctx ~name:"upd_apply" owner

(* The application-level ack of batch [id]. Acked is only journaled for a
   live batch: a duplicate ack (journal-hit re-send, or one racing a crash
   rebuild) must not write consecutive identical records. *)
and on_update_ack ctx id =
  if unacked ctx id >= 0 then begin
    wal_acked ctx.wal ~id;
    clear_unacked ctx id
  end

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
  (* M before D: at the default strip nearly every remote read merges onto
     an in-flight fetch, so one by-pointer lookup settles it. The order
     does not change the classification, since no pointer is in both: a
     reply moves its pointer from M to D, and D is cleared only when M is
     empty (strip boundaries) or at a crash. *)
  else if ctx.cfg.Config.reuse && Pointer_map.merge ctx.map ptr k then begin
    note_outstanding ctx;
    ctx.stats.Dpa_stats.merge_hits <- ctx.stats.Dpa_stats.merge_hits + 1;
    match ctx.obs with
    | None -> ()
    | Some o -> obs_instant o ctx.node ~name:"merge_hit"
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
    let token =
      Pointer_map.issue ctx.map ~reuse:ctx.cfg.Config.reuse ptr k
    in
    ctx.stats.Dpa_stats.spawns <- ctx.stats.Dpa_stats.spawns + 1;
    (match ctx.obs with
    | None -> ()
    | Some o ->
      Dpa_util.Index.add o.issued token ctx.node.Node.clock;
      Dpa_obs.Metrics.observe o.h_out ctx.pending;
      obs_instant o ctx.node ~name:"spawn";
      obs_int o "dst" (Gptr.node ptr);
      obs_outstanding o ctx.node ctx.pending);
    Dpa_msg.Aggregator.add ctx.agg ~dst:(Gptr.node ptr) token
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
    | Some o -> Dpa_util.Index.add o.upd_touched (Update_buffer.key ptr ~idx) 0);
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
        issued = Dpa_util.Index.create ~log2:6;
        strip_open = false;
        strip_start = 0;
        strip_id = 0;
        strip_items = 0;
        touched = Gptr.Tbl.create 256;
        upd_touched = Dpa_util.Index.create ~log2:8;
        opt_actual = 0;
        cau = Dpa_obs.Sink.causal sink;
        last_act = -1;
        wake_parents = [];
        strip_span = -1;
        prev_strip_span = -1;
        q_id = -1;
        q_parent = -1;
        h_id = -1;
        h_flight = -1;
        h_start = 0;
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
      relay_cover = Array.make (Array.length heaps) [||];
      relay_ncover = Array.make (Array.length heaps) 0;
      store = store_create ();
      routing_done = false;
      peers = [||];
      pending = 0;
      label;
      scheduled = false;
      quantum = ignore;
      on_request = Dpa_msg.Am.no_handler;
      on_reply = Dpa_msg.Am.no_handler;
      on_ack = Dpa_msg.Am.no_handler;
      on_apply = Dpa_msg.Am.no_handler;
      on_relay = Dpa_msg.Am.no_handler;
      items;
      next_item = 0;
      finished = false;
      rel = Engine.fault engine <> None;
      timers = Timer_slab.create engine node;
      down_until = 0;
      upd_next_id = 0;
      out_updates = [||];
      out_live = 0;
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
  ctx.quantum <-
    (fun () ->
      ctx.scheduled <- false;
      run_quantum ctx);
  ctx.on_request <- (fun owner _ _ msg -> serve ctx owner msg);
  ctx.on_reply <- (fun _ _ _ msg -> deliver ctx msg);
  ctx.on_ack <- (fun _ id _ _ -> on_update_ack ctx id);
  ctx.on_apply <- (fun owner sb _ _ -> owner_apply ctx sb owner);
  ctx.on_relay <- (fun hopnode sb _ _ -> relay_hop ctx sb hopnode);
  Timer_slab.set_handler ctx.timers (on_timer ctx);
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
      ~flush:(fun ~dst batch -> flush_accumulates ctx ~dst batch)
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
   - the transport forgets the node's unacked envelopes, dedup flags and
     link RTT filters ([Am.on_crash]);
   - the alignment buffer D and the aggregator's unsent batches are
     discarded;
   - ready-queue threads lose the object views they were holding: local
     entries re-read the durable heap, remote entries re-register in M.

   Durable by contract (see DESIGN.md §13): the heap, the result arrays,
   the pointer map M (spawn records, no partial execution), the update
   buffer, and the checksummed WALs — the sender-side update-WAL behind
   [out_updates] and the owner-side applied-batch journal behind
   [upd_journal]. The in-memory images of both die with the
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
  Array.fill ctx.out_updates 0 (Array.length ctx.out_updates) (-1);
  ctx.out_live <- 0;
  Dpa_util.Index.clear ctx.upd_journal.(n.Node.id);
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
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun fdst covers -> Array.sub covers 0 ctx.relay_ncover.(fdst))
              ctx.relay_cover))
    in
    Array.fill ctx.relay_ncover 0 (Array.length ctx.relay_ncover) 0;
    ctx.stats.Dpa_stats.relay_wiped <-
      ctx.stats.Dpa_stats.relay_wiped + Update_buffer.clear ctx.relay;
    let notify_at =
      Engine.elapsed ctx.engine
      + ctx.machine.Machine.wire_latency_ns
      + ctx.machine.Machine.poll_quantum_ns
    in
    Array.sort compare lost;
    Array.iter
      (fun pair ->
        let src = cover_src pair in
        if src <> n.Node.id then
          Timer_slab.arm ctx.peers.(src).timers ~at:notify_at
            Timer_slab.Custody ~id:(cover_id pair) ~dst:n.Node.id ~rto:0 [||])
      lost
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
      ctx.stats.Dpa_stats.wal_repaired + r.Wal.repaired
  in
  scan ctx.wal;
  scan ctx.jwal.(n.Node.id);
  replay_journal ctx.jwal.(n.Node.id) ctx.upd_journal.(n.Node.id);
  let image = Wal.image ctx.wal in
  Dpa_util.Index.fold (wal_live ctx.wal)
    (fun id pos () ->
      set_unacked ctx id (decode_batch ctx.store ~src:n.Node.id image pos))
    ();
  ctx.wal_scanned <- true;
  (* Remote threads stay pending; they merely move from ready back into M
     (so [ctx.pending] is untouched). The restart walk re-issues whatever
     tokens this creates. *)
  Pointer_map.reclaim ctx.map ~reuse:ctx.cfg.Config.reuse ctx.ready;
  match ctx.obs with
  | None -> ()
  | Some o ->
    obs_instant o n ~name:"crash";
    obs_int o "incarnation" n.Node.incarnation;
    obs_int o "restart_at" restart_at;
    (* Only stamped when a tear actually landed, so crash events of
       torn-wal-free runs are byte-identical to the pre-WAL stream. *)
    if torn > 0 then obs_int o "torn" torn

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
      let rid =
        causal_marker o n ~seg:Dpa_obs.Causal.Refetch
          ~kind:Dpa_obs.Causal.Refetch_start ~parent:o.last_act
      in
      obs_instant o n ~name:"restart";
      obs_int o "refetches" (List.length outstanding);
      if ctx.out_live > 0 then obs_int o "upd_resends" ctx.out_live;
      obs_ids o ~id:rid ~parent:o.last_act;
      if rid >= 0 then o.last_act <- rid;
      rid
  in
  let reissue () =
    for id = 0 to ctx.upd_next_id - 1 do
      let sb = unacked ctx id in
      if sb >= 0 then begin
        ctx.stats.Dpa_stats.upd_reissues <-
          ctx.stats.Dpa_stats.upd_reissues + 1;
        resend_update ctx ~id ~rto:(rt_rto ctx ~bytes:(batch_bytes ctx sb)) sb
      end
    done;
    List.iter
      (fun (token, ptr) -> Dpa_msg.Aggregator.add ctx.agg ~dst:(Gptr.node ptr) token)
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
            Engine.post engine ~kind:Engine.Background ~time:crash_at ~node:id
              (fun () ->
                if Engine.live_events engine > 0 then begin
                  crash_node ctx ~plan ~restart_at;
                  Engine.post engine ~kind:Engine.Background ~time:restart_at
                    ~node:id (fun () -> restart_node ctx ~restart_at)
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
    Array.init (Array.length nodes) (fun _ -> Dpa_util.Index.create ~log2:5)
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
  (* Quiescence certificate before the barrier clears D and M: the event
     queue draining with an envelope unacknowledged or still holding its
     slot would mean a lost timer or a leaked slot, a protocol bug, not bad
     luck. *)
  Dpa_msg.Am.certify_barrier engine ~caller:"Runtime.run_phase";
  Array.iter
    (fun ctx ->
      if
        not
          (ctx.finished && ctx.pending = 0
          && Pointer_map.is_empty ctx.map
          && Update_buffer.pending ctx.updates = 0
          && Update_buffer.pending ctx.relay = 0
          && relay_covers ctx = 0
          && ctx.out_live = 0)
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
             (relay_covers ctx) ctx.out_live);
      (* Integrity side of the certificate: every node that crashed ran
         its crash-anchored WAL recovery scan, and the durable log agrees
         with the drained in-memory image — no Batch record without its
         Acked. *)
      if Engine.fault engine <> None then begin
        if ctx.stats.Dpa_stats.crashes > 0 && not ctx.wal_scanned then
          failwith
            "Runtime.run_phase: crashed node reached the barrier without a \
             WAL integrity scan";
        let live = Dpa_util.Index.size (wal_live ctx.wal) in
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
              + (Dpa_util.Index.size o.upd_touched
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
      if Engine.fault engine <> None then begin
        let at a = if n.Node.id < Array.length a then a.(n.Node.id) else 0 in
        let stats = ctxs.(n.Node.id).stats in
        Dpa_obs.Sink.int sink "corrupt_dropped" (at corrupt1 - at corrupt0);
        Dpa_obs.Sink.int sink "wal_truncated" stats.Dpa_stats.wal_truncated;
        Dpa_obs.Sink.int sink "wal_repaired" stats.Dpa_stats.wal_repaired
      end
    in
    Array.iter
      (fun (n : Node.t) ->
        let actual, bound = opt.(n.Node.id) in
        Dpa_obs.Sink.span sink ~cat:"phase" ~name:label ~node:n.Node.id
          ~ts:start ~dur:elapsed_ns;
        Dpa_obs.Sink.int sink "elapsed_ns" elapsed_ns;
        Dpa_obs.Sink.int sink "busy_ns" (n.Node.local_ns + n.Node.comm_ns);
        Dpa_obs.Sink.int sink "bytes" n.Node.bytes_sent;
        Dpa_obs.Sink.int sink "opt_actual_bytes" actual;
        Dpa_obs.Sink.int sink "opt_bound_bytes" bound;
        integrity_args n;
        match cau with
        | None -> ()
        | Some c -> Dpa_obs.Sink.int sink "span_id" (Dpa_obs.Causal.fresh c))
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
