type arg = Int of int | Float of float | Str of string

type kind = Span | Instant | Counter

type event = {
  kind : kind;
  name : string;
  cat : string;
  node : int;
  ts : int;
  dur : int;
  args : (string * arg) list;
  seq : int;  (* per-sink emission order, for stable ts tie-breaking *)
}

type writer = {
  write : event -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

type t = {
  spans : event Dpa_util.Dynarray.t;
  ring : event array;  (* slots past [written] hold [vacant] *)
  capacity : int;
  mutable written : int;  (* total ring events ever stored *)
  mutable ring_dropped : int;  (* overwritten with no writer to capture them *)
  mutable span_count : int;
  mutable next_seq : int;
  metrics : Metrics.t;
  mutable meta_docs : (string * Json.t) list;
  mutable categories : string list option;  (* None = all enabled *)
  mutable spans_only : bool;
  mutable filtered : int;  (* events rejected by the knobs above *)
  mutable sample_period_ns : int;  (* 0 = periodic sampling off *)
  mutable writer : writer option;
  mutable pending : event Dpa_util.Dynarray.t;  (* accepted, not yet flushed *)
  mutable streamed : int;  (* events handed to the writer so far *)
  mutable causal : Causal.t option;  (* happens-before recording, opt-in *)
}

let default_capacity = 1 lsl 18

let vacant =
  {
    kind = Instant;
    name = "";
    cat = "";
    node = 0;
    ts = 0;
    dur = 0;
    args = [];
    seq = -1;
  }

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  {
    spans = Dpa_util.Dynarray.create ();
    ring = Array.make capacity vacant;
    capacity;
    written = 0;
    ring_dropped = 0;
    span_count = 0;
    next_seq = 0;
    metrics = Metrics.create ();
    meta_docs = [];
    categories = None;
    spans_only = false;
    filtered = 0;
    sample_period_ns = 0;
    writer = None;
    pending = Dpa_util.Dynarray.create ();
    streamed = 0;
    causal = None;
  }

let metrics t = t.metrics
let capacity t = t.capacity

let set_categories t cats = t.categories <- cats
let set_spans_only t b = t.spans_only <- b
let filtered t = t.filtered

let set_sample_period t ns =
  if ns < 0 then invalid_arg "Sink.set_sample_period: negative period";
  t.sample_period_ns <- ns

let sample_period_ns t = t.sample_period_ns

let cat_enabled t cat =
  match t.categories with None -> true | Some cats -> List.mem cat cats

(* Every accepted event is built once, with the next sequence number
   already in it; rejected events are invisible, so they must not consume
   one (the JSONL stream would show gaps for no reason). *)
let next_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let accept t ev =
  match t.writer with
  | None -> ()
  | Some _ -> ignore (Dpa_util.Dynarray.add t.pending ev)

let span ?(args = []) t ~cat ~name ~node ~ts ~dur =
  if cat_enabled t cat then begin
    let ev =
      { kind = Span; name; cat; node; ts; dur; args; seq = next_seq t }
    in
    accept t ev;
    ignore (Dpa_util.Dynarray.add t.spans ev);
    t.span_count <- t.span_count + 1
  end
  else t.filtered <- t.filtered + 1

(* Counter samples bypass the category filter: their "counter" category is
   synthetic (no producer chooses it), so a [--trace-cats] list naming only
   real categories used to silently drop every sampled counter track.
   [spans_only] still drops them — that knob's contract is spans and
   nothing else. *)
let ring_accepts t kind cat =
  (not t.spans_only) && (kind = Counter || cat_enabled t cat)

let push_ring t ev =
  accept t ev;
  (* An overwrite only loses the event when no writer captured it at
     emission: with a stream attached the ring is just the in-memory
     flight recorder, not the artifact. *)
  if t.written >= t.capacity && Option.is_none t.writer then
    t.ring_dropped <- t.ring_dropped + 1;
  t.ring.(t.written mod t.capacity) <- ev;
  t.written <- t.written + 1

let instant ?(args = []) t ~cat ~name ~node ~ts =
  if ring_accepts t Instant cat then
    push_ring t
      { kind = Instant; name; cat; node; ts; dur = 0; args; seq = next_seq t }
  else t.filtered <- t.filtered + 1

let counter t ~name ~node ~ts value =
  if ring_accepts t Counter "counter" then
    push_ring t
      {
        kind = Counter;
        name;
        cat = "counter";
        node;
        ts;
        dur = 0;
        args = [ ("value", Int value) ];
        seq = next_seq t;
      }
  else t.filtered <- t.filtered + 1

let set_meta t key doc =
  t.meta_docs <- (key, doc) :: List.remove_assoc key t.meta_docs

let meta t = List.sort (fun (a, _) (b, _) -> compare a b) t.meta_docs

let ring_events t =
  (* Oldest first: once the ring has wrapped, the slot after the newest
     entry holds the oldest survivor. *)
  let live = min t.written t.capacity in
  let first = t.written - live in
  List.init live (fun i -> t.ring.((first + i) mod t.capacity))

(* Spans are recorded at close (their [ts] is the open time), so neither
   the span list nor its concatenation with the ring is time-ordered.
   (ts, seq) is unique per event, so a plain sort both orders by time and
   tie-breaks by emission order. Integer comparisons: no key tuples. *)
let by_time (a : event) (b : event) =
  if a.ts <> b.ts then Int.compare a.ts b.ts else Int.compare a.seq b.seq

let events t =
  List.sort by_time (Dpa_util.Dynarray.to_list t.spans @ ring_events t)

let nspans t = t.span_count
let emitted t = t.span_count + t.written
let dropped t = t.ring_dropped
let streamed t = t.streamed

let attach_writer t w =
  match t.writer with
  | Some _ -> invalid_arg "Sink.attach_writer: a writer is already attached"
  | None -> t.writer <- Some w

let flush_writer t =
  match t.writer with
  | None -> ()
  | Some w ->
    let n = Dpa_util.Dynarray.length t.pending in
    if n > 0 then begin
      (* Each flush segment is sorted, in place, before it is written;
         callers flush at quiescent points (phase barriers, teardown),
         where no later event can carry an earlier timestamp, so the
         concatenation of segments stays time-ordered. The segment is
         detached first, so a writer that raises cannot see it twice. *)
      let evs = t.pending in
      t.pending <- Dpa_util.Dynarray.create ();
      Dpa_util.Dynarray.sort by_time evs;
      Dpa_util.Dynarray.iter w.write evs;
      t.streamed <- t.streamed + n
    end;
    w.flush ()

let close_writer t =
  match t.writer with
  | None -> ()
  | Some w ->
    flush_writer t;
    t.writer <- None;
    w.close ()

let set_causal t c = t.causal <- c
let causal t = t.causal

let global_sink : t option ref = ref None
let set_global s = global_sink := s
let global () = !global_sink
