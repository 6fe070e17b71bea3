open Dpa_heap

(* One destination's buffered entries: a column of packed targets and a
   column of values, in insertion order, and an index from each target to
   the row of its latest entry. The index is all combining needs, and all
   collision detection needs without combining: a held bucket may then
   hold aliased entries, each in its own row, while the index names only
   the last. *)
type bucket = {
  mutable keys : int array;
  mutable vals : float array;
  mutable count : int;
  rows : Dpa_util.Index.t;
}

type batch = {
  mutable b_keys : int array;
  mutable b_vals : float array;
  mutable len : int;
}

type t = {
  buckets : bucket array;
      (* [empty] until a destination's first [add]: a phase builds two
         buffers per node over every destination, and most (node,
         destination) pairs never see an update *)
  combine : bool;
  max_batch : int;
  hold : int -> bool;
      (* held destinations are exempt from the eager max_batch flush and
         from [flush_if]'s strip-boundary pass: their entries keep
         combining across strips until an explicit [flush_all] — the
         whole-phase merge window of routed aggregation *)
  flush : dst:int -> batch -> unit;
  view : batch;  (* the one batch handed to [flush], re-pointed per flush *)
  mutable flushing : bool;
  mutable pending : int;
  mutable sent_entries : int;
  mutable combined : int;
  mutable messages : int;
}

let empty =
  { keys = [||]; vals = [||]; count = 0; rows = Dpa_util.Index.create ~log2:0 }

(* A key is [(node lsl 50) lor (slot lsl 10) lor idx]: 40 bits of slot,
   as in a pointer, and 12 of node, so it stays a non-negative int. *)
let idx_bits = 10
let slot_bits = 40
let node_shift = slot_bits + idx_bits
let node_limit = 1 lsl (62 - node_shift)

let key ptr ~idx =
  if idx < 0 || idx >= 1 lsl idx_bits then
    invalid_arg "Update_buffer.key: field index out of range";
  if Gptr.is_nil ptr || Gptr.node ptr >= node_limit then
    invalid_arg "Update_buffer.key: pointer out of range";
  (Gptr.node ptr lsl node_shift) lor (Gptr.slot ptr lsl idx_bits) lor idx

let key_node k = k lsr node_shift
let key_slot k = (k lsr idx_bits) land ((1 lsl slot_bits) - 1)
let key_idx k = k land ((1 lsl idx_bits) - 1)
let key_ptr k = Gptr.make ~node:(key_node k) ~slot:(key_slot k)

let check b i fn =
  if i < 0 || i >= b.len then
    invalid_arg ("Update_buffer." ^ fn ^ ": index out of range")

let batch_length b = b.len

let batch_key b i =
  check b i "batch_key";
  b.b_keys.(i)

let batch_value b i =
  check b i "batch_value";
  b.b_vals.(i)

let blit_batch b ~keys ~vals ~pos =
  Array.blit b.b_keys 0 keys pos b.len;
  Array.blit b.b_vals 0 vals pos b.len

let create ?(hold = fun _ -> false) ~ndest ~combine ~max_batch ~flush () =
  if ndest <= 0 then invalid_arg "Update_buffer.create: ndest must be positive";
  if max_batch <= 0 then
    invalid_arg "Update_buffer.create: max_batch must be positive";
  {
    buckets = Array.make ndest empty;
    combine;
    max_batch;
    hold;
    flush;
    view = { b_keys = [||]; b_vals = [||]; len = 0 };
    flushing = false;
    pending = 0;
    sent_entries = 0;
    combined = 0;
    messages = 0;
  }

let check_not_flushing t fn =
  if t.flushing then
    invalid_arg
      ("Update_buffer." ^ fn ^ ": called from inside a flush callback")

(* Forget a bucket's rows: unbinding each row's key costs a probe per
   entry, where clearing the index would sweep its whole capacity. *)
let reset_bucket b =
  for r = 0 to b.count - 1 do
    Dpa_util.Index.remove b.rows b.keys.(r)
  done;
  b.count <- 0

let end_flush t =
  t.flushing <- false;
  t.view.len <- 0

(* The bucket's rows are handed over in place: its count is reset before
   the callback runs, and [add] refuses to run until it returns. *)
let flush_dst t dst =
  let b = t.buckets.(dst) in
  let n = b.count in
  if n > 0 then begin
    reset_bucket b;
    t.pending <- t.pending - n;
    t.sent_entries <- t.sent_entries + n;
    t.messages <- t.messages + 1;
    t.view.b_keys <- b.keys;
    t.view.b_vals <- b.vals;
    t.view.len <- n;
    t.flushing <- true;
    (match t.flush ~dst t.view with
    | () -> ()
    | exception e ->
      end_flush t;
      raise e);
    end_flush t
  end

let bucket t dst =
  let b = t.buckets.(dst) in
  if b != empty then b
  else begin
    let b =
      {
        keys = Array.make 8 0;
        vals = Array.make 8 0.;
        count = 0;
        rows = Dpa_util.Index.create ~log2:4;
      }
    in
    t.buckets.(dst) <- b;
    b
  end

let grow b =
  let keys = Array.make (2 * b.count) 0 and vals = Array.make (2 * b.count) 0. in
  Array.blit b.keys 0 keys 0 b.count;
  Array.blit b.vals 0 vals 0 b.count;
  b.keys <- keys;
  b.vals <- vals

let add t ~dst ptr ~idx value =
  check_not_flushing t "add";
  let k = key ptr ~idx in
  let b = bucket t dst in
  let row = Dpa_util.Index.find b.rows k in
  if t.combine && row >= 0 then begin
    b.vals.(row) <- b.vals.(row) +. value;
    t.combined <- t.combined + 1
  end
  else begin
    (* Without combining, aliased keys must still land as distinct
       entries. Unheld buckets flush eagerly on collision (one batch per
       alias run, preserving per-message entry uniqueness); held (routed)
       destinations must NOT flush mid-strip — their phase-long merge
       window is the point — so there the aliased entries simply coexist,
       each in its own row. *)
    if row >= 0 && not (t.hold dst) then flush_dst t dst;
    let r = b.count in
    if r = Array.length b.keys then grow b;
    b.keys.(r) <- k;
    b.vals.(r) <- value;
    b.count <- r + 1;
    Dpa_util.Index.add b.rows k r;
    t.pending <- t.pending + 1
  end;
  if b.count >= t.max_batch && not (t.hold dst) then flush_dst t dst

let flush_all t =
  check_not_flushing t "flush_all";
  for dst = 0 to Array.length t.buckets - 1 do
    flush_dst t dst
  done

let flush_if t pred =
  check_not_flushing t "flush_if";
  for dst = 0 to Array.length t.buckets - 1 do
    if pred dst then flush_dst t dst
  done

(* Wipe all buffered entries without flushing — a crashing node losing its
   volatile relay state. Returns how many entries were dropped so the
   caller can account for them (they must be recovered end-to-end). *)
let clear t =
  check_not_flushing t "clear";
  let wiped = t.pending in
  Array.iter reset_bucket t.buckets;
  t.pending <- 0;
  wiped

let pending t = t.pending
let sent_entries t = t.sent_entries
let combined t = t.combined
let messages t = t.messages
