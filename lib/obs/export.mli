(** Exporters for recorded events and metrics.

    - {!chrome_trace}: Chrome [trace_event] JSON, loadable in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}. One track
      (tid) per simulated node, timestamps in microseconds of sim-time.
    - {!jsonl_writer}: one JSON object per event per line, for ad-hoc
      analysis — a {!Sink.writer} over an [out_channel] for
      {!Sink.attach_writer}, so the ring capacity stops bounding what an
      [--events] file can see.
    - {!metrics_json}: the metrics registry, attached meta documents
      (per-phase [Dpa_stats]) and the per-phase profile as one JSON
      document.
    - {!profile}: human-readable per-phase profile (phase wall times, strip
      counts, per-node skew tables, event tallies, histogram summaries). *)

val chrome_trace : Sink.t -> string
(** [{"traceEvents": [...], "displayTimeUnit": "ns", ...}]. Flow instants
    (cat ["flow"], emitted by the transport when causal tracing is on)
    render as Chrome flow-event pairs ([ph:"s"]/[ph:"f"] named "flight",
    id = the flight's [src/dst/seq/incarnation]), so Perfetto draws
    message arrows between the node tracks. *)

val jsonl_writer : out_channel -> Sink.writer
(** Line-buffered JSONL writer: one compact JSON line per row, with the
    fields [kind], [name], [cat], [node], [ts], [dur], [args], in that
    order.

    The serializer reads each row once through a {!Sink.Cursor}. The
    part of a line that depends only on the row's (label, kind) —
    [{"kind":…,"name":…,"cat":…,"node":] — and each argument's ["key":]
    prefix are rendered once and cached by interned id, so a label is
    escape-scanned once per run rather than once per event; integers are
    written with {!Json.int_to} and [Str] payloads escaped from their
    packed form. Interned ids belong to one sink, and so does a cache.

    Events are rendered into one reused
    64 KiB buffer, which goes to the channel when it is nearly full;
    [flush] drains it and pushes the channel buffer to the OS, [close]
    drains it and closes the channel. Attach with {!Sink.attach_writer}.
    The head cache is bound to the sink whose rows it rendered: a row
    from another sink starts a fresh cache, so one writer can serve
    sinks in turn without printing one sink's labels for another's. *)

val metrics_json : Sink.t -> Json.t
(** [{"metrics", "stats", "events_emitted", "events_dropped",
    "profile"}]. [profile] is a list with one object per labelled phase,
    built by the same pass as {!profile} and unrounded: [phase], [spans],
    [runs], [nodes], [mean_wall_ms] (the last three absent for a
    strip-only phase), [wall_ns], [strips], and [per_node] rows ([node],
    [spans], [wall_ns], [busy_ns], [strips], [bytes]). When the phase
    spans carried them, [optimality] ([actual_bytes], [bound_bytes],
    [per_node]) and [integrity] ([corrupt_dropped], [wal_truncated],
    [wal_repaired], [per_node]) follow; their [per_node] rows cover the
    nodes with a phase span. *)

val profile : Sink.t -> string
(** The global per-phase table (runs, nodes, mean wall ms — total span
    time divided by the span count, correct for uneven node subsets —
    and strip counts; labels whose strips never saw a phase span render
    as strip-only rows), a per-node skew table (wall, busy = local+comm,
    strips, bytes per node, with min/mean/max busy and the max/mean
    imbalance factor per phase), a per-phase communication-optimality
    table (actual vs lower-bound bytes and their ratio, per node and
    summed — present when the phase spans carry the optimality args),
    instant tallies and metric summaries. *)
