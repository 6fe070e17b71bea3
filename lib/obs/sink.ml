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

module Stbl = Hashtbl.Make (String)

(* One store of rows, in emission order, as chunked int columns. Row [p]
   is [meta], [node], [ts], [dur] and [arg0] at position [p]: [meta]
   packs the sequence number, the interned (cat, name) label and the kind;
   the row's arguments are the slots from [arg0] up to the next row's.
   An argument slot packs the interned key and a tag in [akey]; [aval]
   holds an [Int] itself, or the position in [boxed] of a [Str] payload
   or a [Float]'s bit pattern, stored as its length and then seven bytes
   to an int. *)
type log = {
  meta : Chunked.t;
  node : Chunked.t;
  ts : Chunked.t;
  dur : Chunked.t;
  arg0 : Chunked.t;
  akey : Chunked.t;
  aval : Chunked.t;
  boxed : Chunked.t;
  marks : Chunked.t;  (* ring: length of [boxed] as each row chunk began *)
  mutable pend : int;  (* first row not yet handed to the writer *)
}

type row = int  (* position lsl 1, lor 1 for the ring *)

type t = {
  spans : log;  (* every span, for the whole run *)
  ring : log;  (* instants and counters; the last [capacity] are live *)
  capacity : int;
  mutable last : int;  (* store of the newest accepted row, -1 after a reject *)
  mutable ring_dropped : int;  (* overwritten with no writer to capture them *)
  mutable next_seq : int;
  keys : int Stbl.t;  (* argument key -> id *)
  key_names : string Dpa_util.Dynarray.t;
  labels : (string * int) list Stbl.t;  (* name -> (cat, label) *)
  label_names : (string * string) Dpa_util.Dynarray.t;  (* (cat, name) *)
  metrics : Metrics.t;
  mutable meta_docs : (string * Json.t) list;
  mutable categories : string list option;  (* None = all enabled *)
  mutable spans_only : bool;
  mutable filtered : int;  (* events rejected by the knobs above *)
  mutable sample_period_ns : int;  (* 0 = periodic sampling off *)
  mutable writer : writer option;
  mutable streamed : int;  (* events handed to the writer so far *)
  mutable causal : Causal.t option;  (* happens-before recording, opt-in *)
}

and writer = {
  write : t -> row -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

let default_capacity = 1 lsl 18

let new_log () =
  {
    meta = Chunked.create ();
    node = Chunked.create ();
    ts = Chunked.create ();
    dur = Chunked.create ();
    arg0 = Chunked.create ();
    akey = Chunked.create ();
    aval = Chunked.create ();
    boxed = Chunked.create ();
    marks = Chunked.create ();
    pend = 0;
  }

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  {
    spans = new_log ();
    ring = new_log ();
    capacity;
    last = -1;
    ring_dropped = 0;
    next_seq = 0;
    keys = Stbl.create 64;
    key_names = Dpa_util.Dynarray.create ();
    labels = Stbl.create 64;
    label_names = Dpa_util.Dynarray.create ();
    metrics = Metrics.create ();
    meta_docs = [];
    categories = None;
    spans_only = false;
    filtered = 0;
    sample_period_ns = 0;
    writer = None;
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

(* --- interning ---------------------------------------------------------- *)

let label_bits = 20

let key t k =
  match Stbl.find t.keys k with
  | id -> id
  | exception Not_found ->
    let id = Dpa_util.Dynarray.add t.key_names k in
    Stbl.replace t.keys k id;
    id

(* Labels are found by name, then by category among that name's few. *)
let rec label_in cat = function
  | [] -> -1
  | (c, id) :: rest -> if String.equal c cat then id else label_in cat rest

let label t ~cat ~name =
  let cats =
    match Stbl.find t.labels name with l -> l | exception Not_found -> []
  in
  let id = label_in cat cats in
  if id >= 0 then id
  else begin
    let id = Dpa_util.Dynarray.add t.label_names (cat, name) in
    if id >= 1 lsl label_bits then failwith "Sink: too many event labels";
    Stbl.replace t.labels name ((cat, id) :: cats);
    id
  end

(* --- retention ---------------------------------------------------------- *)

let rows l = Chunked.length l.meta

(* Stores are numbered 0 (spans) and 1 (the ring), as in a row's low bit. *)
let store t i = if i = 0 then t.spans else t.ring

(* Free the ring chunks that are both outside the window (older than the
   last [capacity] rows) and already streamed — with no writer attached
   nothing waits to be streamed. Argument and payload chunks go with the
   rows they belong to. *)
let settle t =
  let l = t.ring in
  let n = rows l in
  let keep = Int.min (n - t.capacity) (if Option.is_none t.writer then n else l.pend) in
  let keep = keep land lnot (Chunked.chunk_size - 1) in
  if keep > Chunked.first l.meta then begin
    let chunk = keep / Chunked.chunk_size in
    let a = Chunked.get l.arg0 keep and b = Chunked.get l.marks chunk in
    List.iter
      (fun c -> Chunked.release c keep)
      [ l.meta; l.node; l.ts; l.dur; l.arg0 ];
    Chunked.release l.akey a;
    Chunked.release l.aval a;
    Chunked.release l.boxed b;
    Chunked.release l.marks chunk
  end

(* --- emission ----------------------------------------------------------- *)

let kind_code = function Span -> 0 | Instant -> 1 | Counter -> 2

(* Every accepted event takes the next sequence number; rejected events are
   invisible, so they must not consume one (the JSONL stream would show
   gaps for no reason). *)
let push_row t i kind ~cat ~name ~node ~ts ~dur =
  let l = store t i in
  let p = rows l in
  if i = 1 && p land (Chunked.chunk_size - 1) = 0 then begin
    settle t;
    Chunked.push l.marks (Chunked.length l.boxed)
  end;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Chunked.push l.meta
    ((seq lsl (label_bits + 2)) lor (label t ~cat ~name lsl 2) lor kind);
  Chunked.push l.node node;
  Chunked.push l.ts ts;
  Chunked.push l.dur dur;
  Chunked.push l.arg0 (Chunked.length l.akey);
  t.last <- i

let reject t =
  t.filtered <- t.filtered + 1;
  t.last <- -1

let span t ~cat ~name ~node ~ts ~dur =
  if cat_enabled t cat then push_row t 0 (kind_code Span) ~cat ~name ~node ~ts ~dur
  else reject t

let push_ring t kind ~cat ~name ~node ~ts =
  (* An overwrite only loses the event when no writer captured it at
     emission: with a stream attached the ring is just the in-memory
     flight recorder, not the artifact. *)
  if rows t.ring >= t.capacity && Option.is_none t.writer then
    t.ring_dropped <- t.ring_dropped + 1;
  push_row t 1 kind ~cat ~name ~node ~ts ~dur:0

let instant t ~cat ~name ~node ~ts =
  if (not t.spans_only) && cat_enabled t cat then
    push_ring t (kind_code Instant) ~cat ~name ~node ~ts
  else reject t

let tag_int = 0
let tag_float = 1
let tag_str = 2

let push_arg t k tag v =
  if t.last >= 0 then begin
    let l = store t t.last in
    Chunked.push l.akey ((key t k lsl 2) lor tag);
    Chunked.push l.aval v
  end

let push_boxed t k tag s =
  if t.last >= 0 then begin
    let l = store t t.last and n = String.length s in
    push_arg t k tag (Chunked.length l.boxed);
    Chunked.push l.boxed n;
    for w = 0 to ((n + 6) / 7) - 1 do
      let v = ref 0 in
      for b = 0 to Int.min 6 (n - 1 - (7 * w)) do
        let c = Char.code (String.unsafe_get s ((7 * w) + b)) in
        v := !v lor (c lsl (8 * b))
      done;
      Chunked.push l.boxed !v
    done
  end

let int t k v = push_arg t k tag_int v
let str t k s = push_boxed t k tag_str s

let arg t k = function
  | Int i -> int t k i
  | Str s -> str t k s
  | Float f ->
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.bits_of_float f);
    push_boxed t k tag_float (Bytes.unsafe_to_string b)

(* Counter samples bypass the category filter: their "counter" category is
   synthetic (no producer chooses it), so a [--trace-cats] list naming only
   real categories used to silently drop every sampled counter track.
   [spans_only] still drops them — that knob's contract is spans and
   nothing else. *)
let counter t ~name ~node ~ts value =
  if not t.spans_only then begin
    push_ring t (kind_code Counter) ~cat:"counter" ~name ~node ~ts;
    int t "value" value
  end
  else reject t

let set_meta t key doc =
  t.meta_docs <- (key, doc) :: List.remove_assoc key t.meta_docs

let meta t = List.sort (fun (a, _) (b, _) -> compare a b) t.meta_docs

(* --- rows --------------------------------------------------------------- *)

let log t r = store t (r land 1)
let pos r = r lsr 1
let row_meta t r = Chunked.get (log t r).meta (pos r)

let row_kind t r =
  match row_meta t r land 3 with 0 -> Span | 1 -> Instant | _ -> Counter

let row_label t r = (row_meta t r lsr 2) land ((1 lsl label_bits) - 1)
let row_cat t r = fst (Dpa_util.Dynarray.get t.label_names (row_label t r))
let row_name t r = snd (Dpa_util.Dynarray.get t.label_names (row_label t r))
let row_seq t r = row_meta t r lsr (label_bits + 2)
let row_node t r = Chunked.get (log t r).node (pos r)
let row_ts t r = Chunked.get (log t r).ts (pos r)
let row_dur t r = Chunked.get (log t r).dur (pos r)

let row_nargs t r =
  let l = log t r and p = pos r in
  let next =
    if p + 1 < rows l then Chunked.get l.arg0 (p + 1) else Chunked.length l.akey
  in
  next - Chunked.get l.arg0 p

let slot t r j = Chunked.get (log t r).arg0 (pos r) + j
let row_akey t r j = Chunked.get (log t r).akey (slot t r j)
let row_aval t r j = Chunked.get (log t r).aval (slot t r j)

let row_arg_key t r j = Dpa_util.Dynarray.get t.key_names (row_akey t r j lsr 2)

let row_arg_int t r j = row_aval t r j
let row_arg_str t r j =
  let b = (log t r).boxed and p = row_aval t r j in
  String.init (Chunked.get b p) (fun i ->
      let w = Chunked.get b (p + 1 + (i / 7)) in
      Char.unsafe_chr ((w lsr (8 * (i mod 7))) land 0xff))

let row_arg_float t r j =
  Int64.float_of_bits (String.get_int64_le (row_arg_str t r j) 0)

let row_arg_tag t r j =
  let tag = row_akey t r j land 3 in
  if tag = tag_int then `Int else if tag = tag_str then `Str else `Float

let row_arg t r j =
  match row_arg_tag t r j with
  | `Int -> Int (row_arg_int t r j)
  | `Str -> Str (row_arg_str t r j)
  | `Float -> Float (row_arg_float t r j)

(* Stable merge sort of [rows] by [keys], both in place over [lo, hi),
   with [tk] and [tr] as scratch; halves already in order are not merged.
   Written out because [Array.stable_sort] allocates a closure per merge,
   about three words per row. *)
let rec sort_by_key (keys : int array) (rows : int array) tk tr lo hi =
  if hi - lo > 1 then begin
    let mid = (lo + hi) / 2 in
    sort_by_key keys rows tk tr lo mid;
    sort_by_key keys rows tk tr mid hi;
    if keys.(mid - 1) > keys.(mid) then begin
      for d = lo to hi - 1 do
        tk.(d) <- keys.(d);
        tr.(d) <- rows.(d)
      done;
      let i = ref lo and j = ref mid in
      for d = lo to hi - 1 do
        let from_i = !j >= hi || (!i < mid && tk.(!i) <= tk.(!j)) in
        let s = if from_i then !i else !j in
        if from_i then incr i else incr j;
        keys.(d) <- tk.(s);
        rows.(d) <- tr.(s)
      done
    end
  end

(* Rows from [spans_from] and [ring_from] on, in time order. Spans are
   recorded at close (their [ts] is the open time), so neither store, nor
   their concatenation, is time-ordered; but each store is in emission
   order, so merging the two by [seq] and then sorting stably on [ts]
   orders by time with emission order as the tie-break. ([meta] holds the
   sequence number in its high bits, so it compares as [seq].) *)
let collect t ~spans_from ~ring_from =
  let ns = rows t.spans and nr = rows t.ring in
  let n = ns - spans_from + (nr - ring_from) in
  let out = Array.make n 0 and keys = Array.make n 0 in
  let i = ref spans_from and j = ref ring_from in
  for d = 0 to n - 1 do
    let r =
      if
        !j >= nr
        || !i < ns
           && Chunked.get t.spans.meta !i < Chunked.get t.ring.meta !j
      then begin
        incr i;
        (!i - 1) lsl 1
      end
      else begin
        incr j;
        ((!j - 1) lsl 1) lor 1
      end
    in
    out.(d) <- r;
    keys.(d) <- row_ts t r
  done;
  sort_by_key keys out (Array.make n 0) (Array.make n 0) 0 n;
  out

let live_rows t =
  collect t ~spans_from:0 ~ring_from:(Int.max 0 (rows t.ring - t.capacity))

let event t r =
  {
    kind = row_kind t r;
    name = row_name t r;
    cat = row_cat t r;
    node = row_node t r;
    ts = row_ts t r;
    dur = row_dur t r;
    args = List.init (row_nargs t r) (fun j -> (row_arg_key t r j, row_arg t r j));
    seq = row_seq t r;
  }

let events t = Array.to_list (Array.map (event t) (live_rows t))

let nspans t = rows t.spans
let emitted t = rows t.spans + rows t.ring
let dropped t = t.ring_dropped
let streamed t = t.streamed

(* --- streaming ---------------------------------------------------------- *)

let attach_writer t w =
  match t.writer with
  | Some _ -> invalid_arg "Sink.attach_writer: a writer is already attached"
  | None ->
    t.spans.pend <- rows t.spans;
    t.ring.pend <- rows t.ring;
    t.writer <- Some w

let flush_writer t =
  match t.writer with
  | None -> ()
  | Some w ->
    let sorted =
      collect t ~spans_from:t.spans.pend ~ring_from:t.ring.pend
    in
    if Array.length sorted > 0 then begin
      (* Each flush segment is sorted before it is written; callers flush
         at quiescent points (phase barriers, teardown), where no later
         event can carry an earlier timestamp, so the concatenation of
         segments stays time-ordered. The segment is detached first, so a
         writer that raises cannot see it twice, and the newest row is
         closed to further arguments. *)
      t.spans.pend <- rows t.spans;
      t.ring.pend <- rows t.ring;
      t.last <- -1;
      Array.iter (fun r -> w.write t r) sorted;
      t.streamed <- t.streamed + Array.length sorted;
      settle t
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
