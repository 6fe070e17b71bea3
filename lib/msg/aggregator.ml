(* Per destination, a growable int buffer holding the pending entries in
   FIFO order. Buffers start as the shared empty array and grow on first
   use, so an aggregator over many mostly-idle destinations costs two
   words per destination until a destination is used. A buffer never holds
   more than [max_batch] entries: reaching it flushes. *)
type batch = { mutable buf : int array; mutable len : int }

type t = {
  buffers : int array array;
  counts : int array;
  max_batch : int;
  flush : dst:int -> batch -> unit;
  view : batch;  (* the one batch handed to [flush], re-pointed per flush *)
  mutable flushing : bool;
  mutable pending : int;
  mutable flushes : int;
  mutable max_batch_seen : int;
  mutable observer : (dst:int -> int -> unit) option;
}

let create ~ndest ~max_batch ~flush =
  if ndest <= 0 then invalid_arg "Aggregator.create: ndest must be positive";
  if max_batch <= 0 then invalid_arg "Aggregator.create: max_batch must be positive";
  {
    buffers = Array.make ndest [||];
    counts = Array.make ndest 0;
    max_batch;
    flush;
    view = { buf = [||]; len = 0 };
    flushing = false;
    pending = 0;
    flushes = 0;
    max_batch_seen = 0;
    observer = None;
  }

let batch_length b = b.len

let batch_get b i =
  if i < 0 || i >= b.len then invalid_arg "Aggregator.batch_get: index out of range";
  Array.unsafe_get b.buf i

let end_flush t =
  t.flushing <- false;
  t.view.len <- 0

(* The destination's count is reset before the callback runs, but the
   batch aliases its buffer: the callback reads it in place, and [add] and
   [flush_all] refuse to run until it returns. *)
let flush_dst t dst =
  let n = t.counts.(dst) in
  if n > 0 then begin
    t.counts.(dst) <- 0;
    t.pending <- t.pending - n;
    t.flushes <- t.flushes + 1;
    if n > t.max_batch_seen then t.max_batch_seen <- n;
    (match t.observer with Some f -> f ~dst n | None -> ());
    t.view.buf <- t.buffers.(dst);
    t.view.len <- n;
    t.flushing <- true;
    (match t.flush ~dst t.view with
    | () -> ()
    | exception e ->
      end_flush t;
      raise e);
    end_flush t
  end

let check_not_flushing t fn =
  if t.flushing then
    invalid_arg ("Aggregator." ^ fn ^ ": called from inside a flush callback")

let add t ~dst x =
  check_not_flushing t "add";
  let n = t.counts.(dst) in
  let buf = t.buffers.(dst) in
  let buf =
    if n < Array.length buf then buf
    else begin
      let grown =
        Array.make (min t.max_batch (max 8 (2 * Array.length buf))) 0
      in
      Array.blit buf 0 grown 0 n;
      t.buffers.(dst) <- grown;
      grown
    end
  in
  Array.unsafe_set buf n x;
  t.counts.(dst) <- n + 1;
  t.pending <- t.pending + 1;
  if n + 1 >= t.max_batch then flush_dst t dst

let flush_all t =
  check_not_flushing t "flush_all";
  for dst = 0 to Array.length t.buffers - 1 do
    flush_dst t dst
  done

let clear t =
  let n = t.pending in
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.pending <- 0;
  n

let pending t = t.pending

let pending_for t ~dst =
  if dst < 0 || dst >= Array.length t.counts then
    invalid_arg "Aggregator.pending_for: bad destination";
  t.counts.(dst)

let flushes t = t.flushes
let max_batch_seen t = t.max_batch_seen
let set_observer t f = t.observer <- f
