(** The DPA runtime: dynamic pointer alignment.

    A phase executes, on every node, an array of independent work items (the
    iterations of a top-level [conc] loop). Items are strip-mined by
    {!Config.strip_size}. Within a strip, each remote read creates a
    non-blocking thread labeled by the pointer it needs:

    - the pointer→threads map [M] merges threads waiting on the same pointer
      onto one outstanding fetch;
    - fetched copies are renamed into the alignment buffer [D] and reused by
      later reads in the strip (tiling);
    - requests are aggregated per owner node and flushed either when a batch
      fills or when the node runs out of ready threads (pipelining:
      communication overlaps the execution of ready threads);
    - a bulk reply wakes all threads waiting on its pointers, which then run
      consecutively: each token's waiters enter the ready ring as one
      chain entry ({!Ready_ring}), dispatched one thread at a time in
      registration order — each charged its dispatch overhead and checked
      against the poll quantum, a chain cut by the quantum resuming from
      its cursor.

    Dispatch allocates nothing: a read, a merge, a wake and a thread's
    dispatch write pre-sized arrays, and each node posts the same
    preallocated action for every poll quantum.

    Between strips [D] and the thread state are discarded, bounding memory
    as the paper's k-bounded strip-mining does.

    {2 Adaptive strip size}

    Under {!Config.dpa_auto} the strip bound is not static: at each strip
    boundary a per-node controller halves the next strip when [D]'s
    closing occupancy exceeded the configured target, doubles it while
    the occupancy is at or below half the target (so a doubling cannot
    overshoot even if the footprint scales with the strip), and holds
    inside the hysteresis band between — always within
    [min_strip, max_strip]. The decision reads only state the runtime
    already maintains and charges no simulated time, so pinning the
    bounds ([min_strip = max_strip]) reproduces the static configuration
    bit for bit. Resizes are counted in {!Dpa_stats} ([strip_grows],
    [strip_shrinks], [strip_size_final]) and, under a sink, emitted as
    ["ctrl"]-category [strip_resize] instants plus a [strip_size] counter
    track.

    {2 Timeouts under a fault plan}

    With a fault plan active each request message also arms one
    end-to-end timer ({!Timer_slab}); at its deadline the message's
    still-unanswered tokens are re-issued, in message order, each as a
    single-entry request with its own timer ([Dpa_stats.rt_retries]
    counts them). Its base timeout uses the transport's
    round-trip estimator when {!Dpa_sim.Machine.adaptive_rto} is set
    (see {!Dpa_msg.Am.e2e_rto}), falling back to a constant worst-case
    formula until samples exist. The phase barrier certifies transport
    quiescence ({!Dpa_msg.Am.certify_barrier}).

    {2 Crash-restart}

    When the fault plan schedules crash windows ([crashes > 0]), the
    runtime posts one background event per window. At the crash instant
    the node fail-stops {e between} engine events — no handler is ever
    interrupted midway — and loses exactly its volatile state: the
    alignment buffer [D], the aggregator's unsent request batches, the
    ready ring's remote renamed copies (their threads re-register in [M],
    a woken chain's undispatched waiters in registration order —
    {!Pointer_map.reclaim}), and the transport's per-node state
    (unacked envelopes, dedup flags, link RTT filters —
    {!Dpa_msg.Am.on_crash}). The node's incarnation number is bumped, so
    every message copy stamped for the old incarnation is fenced at
    delivery: counted, but no handler runs and no ack is sent.

    Durable by contract: the heap, result arrays, the pointer map [M]
    (thread records register before any partial execution), the
    unacked-batch write-ahead log and the owner-side applied-batch
    journal that together make remote accumulates exactly-once across
    crashes on either end. The two logs are checksummed record images
    with a doublewrite slot ({!Wal}): the torn-write fault class
    ([torn-wal]) may damage one tail copy per crash, so recovery starts
    with an integrity scan ({!Wal.scan}) that truncates the damage and
    repairs the lost record from the slot — counted by
    [Dpa_stats.wal_truncated] / [wal_repaired]. The scan and the rebuild
    of the in-memory log images run atomically at the crash event,
    before the new incarnation can append (each append overwrites the
    slot) or accept a delivery (the journal image must already dedup) —
    in wall-clock terms this is the first thing restart-time recovery
    does.

    At the restart instant the node rejoins cold: it idles until then,
    and every token still outstanding in [M] is pushed back through the
    normal aggregation/alignment path — the transparent re-fetch counted
    by [Dpa_stats.crash_refetches]. Update batches rebuilt from the
    scanned WAL re-send off their own (deliberately unfenced) timers.

    Tree-routed aggregation ({!Config.route}) survives crashes through
    origin custody: under a fault plan every routed batch is journaled
    at its origin and kept in its outstanding set until the {e final
    owner}'s end-to-end ack releases it — relay hops are best-effort
    combiners whose parked batches are volatile by design. A relay
    crash wipes them ([Dpa_stats.relay_wiped]) and the covering origins
    re-issue straight-line through the flat exactly-once path
    ([Dpa_stats.routed_reissues]), deduped by the owner's journal; an
    origin's own end-to-end timer (RTO scaled by tree depth) is the
    fallback for lost acks or notifies.

    Results remain bit-identical to the fault-free run; DESIGN.md §13
    states the full per-fault-class contract and §15 the routed custody
    protocol. *)

type ctx

include Access.S with type ctx := ctx

val charge : ctx -> int -> unit
(** [charge ctx ns] = [Dpa_sim.Node.charge_local (node ctx) ns]: account
    [ns] of local application computation, for item code written against
    this runtime directly rather than a functor over {!Access.S}. *)

val dispatch_underflow : node:int -> label:string -> 'a
(** Raises [Failure] naming [node] and the phase [label]: what the
    scheduler raises when it is about to dispatch a thread while none is
    pending on the node, which only a corrupted ready ring or pointer map
    can bring about. *)

val run_phase :
  engine:Dpa_sim.Engine.t ->
  heaps:Dpa_heap.Heap.cluster ->
  config:Config.t ->
  items:(int -> (ctx -> unit) array) ->
  Dpa_sim.Breakdown.t * Dpa_stats.t
(** [run_phase ~engine ~heaps ~config ~items] runs one parallel phase.
    [items node] gives the work items of [node]; each item is run once and
    may issue {!read}s and {!charge}s. Returns the phase breakdown (elapsed
    time, local/comm/idle split) and merged runtime statistics.

    The engine's queue must be empty. The phase ends with a barrier.

    Equivalent to {!run_phase_labeled} with label ["phase"]. *)

val run_phase_labeled :
  label:string ->
  engine:Dpa_sim.Engine.t ->
  heaps:Dpa_heap.Heap.cluster ->
  config:Config.t ->
  items:(int -> (ctx -> unit) array) ->
  Dpa_sim.Breakdown.t * Dpa_stats.t
(** Like {!run_phase}, with a phase label for the observability layer.

    When the engine carries a {!Dpa_sim.Engine.sink}, the runtime emits
    structured events into it — per-node phase and strip spans; spawn,
    wake, alignment-buffer hit/evict, request/update send and bulk-reply
    instants — and feeds per-phase metrics (request batch sizes, thread
    wait latency in sim-ns, outstanding threads, D-buffer occupancy,
    per-destination message volume) into the sink's registry under names
    suffixed [".label"]. The phase's merged {!Dpa_stats} are attached as a
    meta document ["dpa_stats.label"] (last run wins per label).

    With no sink attached every hook is a cheap [None] match: no closure
    is allocated on the hot path and results are bit-identical. *)
