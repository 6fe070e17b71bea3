(** Structured event sink: the collection point of the observability layer.

    Producers ({!Dpa_sim.Engine}, the DPA runtime, the message layer) emit
    spans (named intervals in sim-time on one node), instants and counter
    samples. An event is emitted first and its arguments are attached
    after it, one call each ([span ...; int t "span_id" id]); arguments
    attach to the newest accepted event, so a filtered event ignores its
    own.

    {b Storage.} Events are rows of chunked int columns ({!Chunked}), in
    two stores of one layout: the span store and the ring. A row packs its
    sequence number, interned (cat, name) label and kind into one int,
    beside its node, [ts], [dur] and first argument slot; an argument is
    an interned key with a tag and an int value; a [Str]
    payload is packed into another int column, seven bytes to an int.
    Records ({!event}) are built only when read; the serializer reads
    rows in place through a {!Cursor}.

    {b Order.} A flush or snapshot merges the two stores by sequence
    number and orders the result with a stable LSD radix sort on [ts]
    minus the least [ts] (see {!flush_writer}), which returns exactly the
    permutation of a stable sort on [(ts, seq)]. The flush's sort arrays
    belong to the sink and are reused.

    {b Retention.} Spans are kept unbounded — there are O(strips x nodes)
    of them and the exporters' phase structure depends on every one —
    while instants and counter samples live in a ring window of the last
    [capacity] rows ({!create}; flight-recorder behaviour: older rows are
    overwritten, and the overwrite count is reported by {!dropped} and in
    the exported artifacts). A ring chunk goes back to its column's pool
    once every row in it is both outside the window and streamed to the
    attached writer (if any), so steady-state recording allocates nothing.

    A sink also owns a {!Metrics.t} registry, so a single object carries
    everything one experiment run produces, and an optional process-global
    default that {!Dpa_sim.Engine.create} picks up, letting drivers enable
    observability without threading a value through every layer. When no
    sink is attached anywhere, every producer hook is a [None] match on a
    mutable field — no closure is allocated and no timing or statistic
    changes. *)

type arg = Int of int | Str of string

type kind = Span | Instant | Counter

type event = {
  kind : kind;
  name : string;
  cat : string;  (** coarse grouping: "phase", "strip", "runtime", "msg", "sim" *)
  node : int;
  ts : int;  (** sim-ns *)
  dur : int;  (** sim-ns; 0 for instants and counters *)
  args : (string * arg) list;
  seq : int;
      (** per-sink emission order. Spans are recorded at close ([ts] is
          the open time), so [ts] alone does not order the stream; [seq]
          is the tie-break that makes merges stable. *)
}

type t

type row [@@immediate]
(** A row of the sink's stores: one accepted event, valid while the sink
    retains it (spans always; ring rows while in the window or not yet
    streamed). *)

type writer = {
  write : t -> row -> unit;
      (** one accepted event, in time order at flush *)
  flush : unit -> unit;  (** make everything written so far durable *)
  close : unit -> unit;  (** release the underlying resource *)
}
(** A streaming consumer (see {!attach_writer}): typically a line-buffered
    JSONL emitter over an [out_channel] ({!Export.jsonl_writer}), reading
    each row through the accessors below. *)

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the instant/counter ring (default [1 lsl 18]). *)

val default_capacity : int

val metrics : t -> Metrics.t

val span : t -> cat:string -> name:string -> node:int -> ts:int -> dur:int -> unit

val instant : t -> cat:string -> name:string -> node:int -> ts:int -> unit

val counter : t -> name:string -> node:int -> ts:int -> int -> unit
(** A sampled value, rendered as a counter track by the Chrome exporter;
    its [value] argument is attached here. *)

val int : t -> string -> int -> unit
(** [int t key v] attaches [(key, Int v)] to the newest accepted event, in
    call order. Ignored when that event was filtered, or after a flush
    handed it to the writer. *)

val str : t -> string -> string -> unit

val set_categories : t -> string list option -> unit
(** [set_categories t (Some cats)] keeps only spans and instants whose
    [cat] is listed; everything else is rejected at emission and counted
    by {!filtered}. [None] (the default) enables every category. Counter
    samples are exempt: their ["counter"] category is synthetic (no
    producer chooses it), so they are always recorded regardless of the
    list — a [--trace-cats] filter combined with [--sample-ns] must not
    silently drop the sampled tracks. Chaos runs emit dense ["fault"]
    instants — this is the knob that keeps their Chrome traces
    tractable. *)

val set_spans_only : t -> bool -> unit
(** When on, instants and counter samples are rejected at emission (and
    counted by {!filtered}); spans still obey the category filter. The
    phase/strip skeleton survives at a fraction of the trace size. *)

val filtered : t -> int
(** Events rejected by {!set_categories} / {!set_spans_only}. Distinct
    from {!dropped}: filtered events never reached the ring. *)

val set_sample_period : t -> int -> unit
(** Period in sim-ns for fixed-rate counter sampling ([0], the default,
    disables it). Producers that support it ({!Dpa.Runtime} phases via
    {!Dpa_sim.Engine.start_sampler}) emit per-node counter tracks
    (outstanding threads, D-buffer occupancy) at this rate — giving
    uniform time resolution over long phases where event-granularity
    sampling bunches up, e.g. when charting recovery after an injected
    NIC outage. *)

val sample_period_ns : t -> int

val set_meta : t -> string -> Json.t -> unit
(** Attach a named JSON document (e.g. the phase's merged [Dpa_stats]);
    re-using a key overwrites. Exported with the metrics. *)

val meta : t -> (string * Json.t) list
(** Sorted by key. *)

val events : t -> event list
(** All live events (spans plus the ring window), stable-merged by [ts]
    with emission order ([seq]) as the tie-break — spans recorded at close
    interleave correctly with the instants emitted while they were open.
    Builds one record per row. *)

val live_rows : t -> row array
(** The rows behind {!events}, in the same order. *)

val event : t -> row -> event
(** The record of one row. *)

(** {2 Reading rows}

    The serializer reads rows through a {!Cursor}, which resolves a row's
    store, position and argument slots once; labels and argument keys are
    interned ids, named by the functions below. *)

val label_cat : t -> int -> string
val label_name : t -> int -> string
val key_name : t -> int -> string

module Cursor : sig
  type sink := t

  type t
  (** A position over one sink's rows. *)

  val create : sink -> t
  val sink : t -> sink

  val seek : t -> row -> unit
  (** Resolve a row; the readers below read the last row sought. *)

  val head : t -> int
  (** The (label, kind) pair as one small int, [label lsl 2] plus the
      kind's code (0 span, 1 instant, 2 counter): a dense key for caching
      what depends on the pair only. *)

  val label : t -> int
  val kind : t -> kind
  val node : t -> int
  val ts : t -> int
  val dur : t -> int

  val nargs : t -> int
  (** Argument [j] of the row ranges over [0 .. nargs c - 1], in attach
      order. *)

  val arg_key : t -> int -> int
  val arg_tag : t -> int -> [ `Int | `Str ]
  val arg_int : t -> int -> int

  val arg_str_to : t -> int -> Buffer.t -> unit
  (** A [Str] argument as a quoted, escaped JSON string
      ({!Json.escape_to}), read straight from its packed payload. *)
end

val nspans : t -> int

val emitted : t -> int
(** Total events ever emitted, including overwritten ring entries. *)

val dropped : t -> int
(** Ring entries lost to overwriting {e with no writer attached to capture
    them}. While a writer is attached ({!attach_writer}) an overwritten
    entry was already streamed at emission, so it is not a drop — the ring
    is only the in-memory flight recorder, not the artifact. *)

val attach_writer : t -> writer -> unit
(** Stream every event accepted from now on (spans and ring events alike,
    after the category/spans-only filters) to [writer], instead of relying
    on the ring snapshot at exit. Accepted rows stay in the columns, even
    past the ring window, until {!flush_writer} hands them to
    [writer.write] in time order; callers must flush at
    quiescent points only (phase barriers — {!Dpa_sim.Engine.barrier} does
    this automatically — or teardown), where no later event can carry an
    earlier timestamp, so the stream stays time-ordered within one
    engine's run. Raises [Invalid_argument] if a writer is already
    attached. *)

val flush_writer : t -> unit
(** Sort the rows accepted since the last flush by ([ts], [seq]), hand
    them to the writer, and flush it. No-op without an attached writer.

    The rows are merged by [seq] from the two stores and then ordered by
    a stable LSD radix sort on the key [ts] minus the segment's least
    [ts], 11 bits a pass, so a segment spanning a second of sim-ns takes
    three passes. The key is read as unsigned, so a range wider than
    [max_int] sorts correctly. Each row is sorted with its key packed
    above it in one int when both fit, and reads its key from the [ts]
    column when they do not. The sort's two arrays belong to the sink and
    are reused by every flush. *)

val close_writer : t -> unit
(** {!flush_writer}, then close and detach the writer, making everything
    streamed so far durable — safe to call from an exception handler after
    a mid-run crash, and idempotent. No-op without an attached writer. *)

val streamed : t -> int
(** Events handed to the attached writer so far (i.e. flushed). *)

val set_causal : t -> Causal.t option -> unit
(** Attach a happens-before graph ({!Causal.t}). When present, the
    producers additionally record causal DAG nodes and edges, stamp
    span_id/parent args on their events, and emit flow instants; the
    engine's barrier runs {!Critpath.at_barrier} over each phase window.
    [None] (the default) keeps all of that at a single [match] per hook. *)

val causal : t -> Causal.t option

val set_global : t option -> unit
val global : unit -> t option
