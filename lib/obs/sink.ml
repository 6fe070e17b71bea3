type arg = Int of int | Str of string

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
   holds an [Int] itself, or the position in [boxed] of a [Str] payload,
   stored as its length and then seven bytes to an int. *)
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

let radix_bits = 11

(* Scratch of the time-order sort ([collect]): the rows with their keys,
   and the array each radix pass scatters them into; grown to the largest
   segment and reused. *)
type order = {
  mutable sorted : row array;
  mutable sorted' : row array;
  counts : int array;  (* per digit, 2^radix_bits *)
}

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
  order : order;  (* flush scratch *)
  mutable causal : Causal.t option;  (* happens-before recording, opt-in *)
}

and writer = {
  write : t -> row -> unit;
  flush : unit -> unit;
  close : unit -> unit;
}

let default_capacity = 1 lsl 18

let new_order () =
  { sorted = [||]; sorted' = [||]; counts = Array.make (1 lsl radix_bits) 0 }

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
    order = new_order ();
    causal = None;
  }

let metrics t = t.metrics

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

let label_cat t id = fst (Dpa_util.Dynarray.get t.label_names id)
let label_name t id = snd (Dpa_util.Dynarray.get t.label_names id)
let key_name t id = Dpa_util.Dynarray.get t.key_names id

module Cursor = struct
  type sink = t

  (* The row's store, position, [meta] and argument slots, resolved once
     by [seek]. *)
  type t = {
    sink : sink;
    mutable log : log;
    mutable pos : int;
    mutable meta : int;
    mutable arg0 : int;
    mutable nargs : int;
  }

  let create sink =
    { sink; log = sink.spans; pos = 0; meta = 0; arg0 = 0; nargs = 0 }

  let sink c = c.sink

  let seek c r =
    let l = store c.sink (r land 1) and p = r lsr 1 in
    let a = Chunked.get l.arg0 p in
    c.log <- l;
    c.pos <- p;
    c.meta <- Chunked.get l.meta p;
    c.arg0 <- a;
    c.nargs <-
      (if p + 1 < rows l then Chunked.get l.arg0 (p + 1)
       else Chunked.length l.akey)
      - a

  let head c = c.meta land ((1 lsl (label_bits + 2)) - 1)
  let label c = head c lsr 2

  let[@inline] kind c =
    match c.meta land 3 with 0 -> Span | 1 -> Instant | _ -> Counter

  let seq c = c.meta lsr (label_bits + 2)
  let[@inline] node c = Chunked.get c.log.node c.pos
  let[@inline] ts c = Chunked.get c.log.ts c.pos
  let[@inline] dur c = Chunked.get c.log.dur c.pos
  let nargs c = c.nargs
  let[@inline] akey c j = Chunked.get c.log.akey (c.arg0 + j)
  let[@inline] arg_key c j = akey c j lsr 2

  let[@inline] arg_tag c j =
    let tag = akey c j land 3 in
    if tag = tag_int then `Int else `Str

  let[@inline] arg_int c j = Chunked.get c.log.aval (c.arg0 + j)

  (* A payload is its length at [aval], then its bytes, seven to an int
     from the low byte up. *)
  let payload_byte b p i =
    (Chunked.get b (p + 1 + (i / 7)) lsr (8 * (i mod 7))) land 0xff

  let arg_str c j =
    let b = c.log.boxed and p = arg_int c j in
    String.init (Chunked.get b p) (fun i ->
        Char.unsafe_chr (payload_byte b p i))

  let arg_str_to c j buf =
    let b = c.log.boxed and p = arg_int c j in
    let n = Chunked.get b p in
    Buffer.add_char buf '"';
    for w = 0 to ((n + 6) / 7) - 1 do
      let v = Chunked.get b (p + 1 + w) in
      for i = 0 to Int.min 6 (n - 1 - (7 * w)) do
        Json.escape_char_to buf (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
      done
    done;
    Buffer.add_char buf '"'

  let arg c j =
    match arg_tag c j with
    | `Int -> Int (arg_int c j)
    | `Str -> Str (arg_str c j)

  let event c r =
    seek c r;
    let t = c.sink and l = label c in
    {
      kind = kind c;
      name = label_name t l;
      cat = label_cat t l;
      node = node c;
      ts = ts c;
      dur = dur c;
      args = List.init (nargs c) (fun j -> (key_name t (arg_key c j), arg c j));
      seq = seq c;
    }
end

let event t r = Cursor.event (Cursor.create t) r

(* --- time order --------------------------------------------------------- *)

let reserve o n =
  if Array.length o.sorted < n then begin
    o.sorted <- Array.make n 0;
    o.sorted' <- Array.make n 0
  end

let[@inline] row_ts t r = Chunked.get (store t (r land 1)).ts (r lsr 1)

(* Bits needed to write [x] read as unsigned. *)
let width x =
  let b = ref 0 in
  while !b < Sys.int_size && x lsr !b <> 0 do
    incr b
  done;
  !b

(* While sorting, an element is a row with its key, [ts - lo], packed
   above its [rbits] bits. When the two do not fit in an int together,
   [rbits] is 0 and elements are bare rows, whose keys are read from the
   [ts] column. *)
let[@inline] digit t e ~lo ~rbits ~shift =
  let key = if rbits > 0 then e lsr rbits else row_ts t e - lo in
  (key lsr shift) land ((1 lsl radix_bits) - 1)

(* One stable counting pass over the first [n] elements on the key digit
   at [shift], scattering into [o.sorted'], which then becomes
   [o.sorted]. A pass where every element has the same digit would move
   nothing and is skipped. *)
let radix_pass t o n ~lo ~rbits ~shift =
  let counts = o.counts and sorted = o.sorted and sorted' = o.sorted' in
  Array.fill counts 0 (Array.length counts) 0;
  for d = 0 to n - 1 do
    let b = digit t sorted.(d) ~lo ~rbits ~shift in
    counts.(b) <- counts.(b) + 1
  done;
  if counts.(digit t sorted.(0) ~lo ~rbits ~shift) < n then begin
    let at = ref 0 in
    for b = 0 to Array.length counts - 1 do
      let c = counts.(b) in
      counts.(b) <- !at;
      at := !at + c
    done;
    for d = 0 to n - 1 do
      let e = sorted.(d) in
      let b = digit t e ~lo ~rbits ~shift in
      let at = counts.(b) in
      counts.(b) <- at + 1;
      sorted'.(at) <- e
    done;
    o.sorted <- sorted';
    o.sorted' <- sorted
  end

(* Rows from [spans_from] and [ring_from] on, in time order, into the
   first [n] slots of [o.sorted]; returns [n]. Spans are recorded at close
   (their [ts] is the open time), so neither store, nor their
   concatenation, is time-ordered; but each store is in emission order, so
   merging the two by [seq] ([meta] holds it in its high bits, so it
   compares as [seq]) and then sorting stably on [ts] orders by time with
   emission order as the tie-break. The sort is LSD radix on the key
   [ts - lo], [lo] the least [ts], read as an unsigned 63-bit int: that
   difference is exact even when [hi - lo] overflows, and it takes one
   pass per [radix_bits] of the range — three for a second of sim-ns. *)
let collect t o ~spans_from ~ring_from =
  let ns = rows t.spans and nr = rows t.ring in
  let n = ns - spans_from + (nr - ring_from) in
  reserve o n;
  (* [o.sorted'] holds each row's [ts] until the rows are packed. *)
  let out = o.sorted and ts_of = o.sorted' in
  let lo = ref max_int and hi = ref min_int in
  let i = ref spans_from and j = ref ring_from in
  for d = 0 to n - 1 do
    let from_spans =
      !j >= nr
      || (!i < ns && Chunked.get t.spans.meta !i < Chunked.get t.ring.meta !j)
    in
    let ts =
      if from_spans then begin
        out.(d) <- !i lsl 1;
        incr i;
        Chunked.get t.spans.ts (!i - 1)
      end
      else begin
        out.(d) <- (!j lsl 1) lor 1;
        incr j;
        Chunked.get t.ring.ts (!j - 1)
      end
    in
    ts_of.(d) <- ts;
    if ts > !hi then hi := ts;
    if ts < !lo then lo := ts
  done;
  if n > 1 then begin
    let lo = !lo and kbits = width (!hi - !lo) in
    let rbits = width (2 * Int.max ns nr) in
    let rbits = if rbits + kbits <= Sys.int_size then rbits else 0 in
    if rbits > 0 then
      for d = 0 to n - 1 do
        out.(d) <- ((ts_of.(d) - lo) lsl rbits) lor out.(d)
      done;
    let shift = ref 0 in
    while !shift < kbits do
      radix_pass t o n ~lo ~rbits ~shift:!shift;
      shift := !shift + radix_bits
    done;
    if rbits > 0 then begin
      let out = o.sorted and row = (1 lsl rbits) - 1 in
      for d = 0 to n - 1 do
        out.(d) <- out.(d) land row
      done
    end
  end;
  n

(* A fresh order: its rows are handed to the caller, and it is sized to
   them exactly. *)
let live_rows t =
  let o = new_order () in
  let ring_from = Int.max 0 (rows t.ring - t.capacity) in
  ignore (collect t o ~spans_from:0 ~ring_from);
  o.sorted

let events t =
  let c = Cursor.create t in
  Array.to_list (Array.map (Cursor.event c) (live_rows t))

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
    let n = collect t t.order ~spans_from:t.spans.pend ~ring_from:t.ring.pend in
    if n > 0 then begin
      (* Each flush segment is sorted before it is written; callers flush
         at quiescent points (phase barriers, teardown), where no later
         event can carry an earlier timestamp, so the concatenation of
         segments stays time-ordered. The segment is detached first, so a
         writer that raises cannot see it twice, and the newest row is
         closed to further arguments. *)
      t.spans.pend <- rows t.spans;
      t.ring.pend <- rows t.ring;
      t.last <- -1;
      let sorted = t.order.sorted in
      for d = 0 to n - 1 do
        w.write t sorted.(d)
      done;
      t.streamed <- t.streamed + n;
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
