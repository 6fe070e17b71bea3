(* An index heap. A binary min-heap orders (time, seq, slot) triples held
   in three int columns; the entry each triple names — its caller tag and
   its payload — sits in per-slot columns, written once by [add_tagged]
   and read once at the pop. Sifting therefore moves only immediates: no
   level of a sift stores a payload, so none pays a write barrier or the
   polymorphic array's float-tag check. The [seq] counter makes (time,
   seq) a total order and implements the FIFO tie-break documented in the
   interface.

   A slot is free once its entry is popped. [drop_min] overwrites the
   payload slot with [filler] — an immediate, so a popped payload is never
   kept alive by the queue — and pushes the slot onto an int stack that
   the next [add_tagged] pops. While that stack is empty the slots in use
   are exactly [0, len), so the fresh slot is [len]. All columns share one
   capacity and double together; the payload column is created from an
   immediate, so it is never a flat float array and a float payload is
   stored boxed like any other value.

   Sifts move a hole rather than swapping, so each level costs three int
   stores. Their indices are below [len], which never exceeds the columns'
   length, so they read and write without bounds checks. *)

type 'a t = {
  mutable times : int array;  (* heap position -> time *)
  mutable seqs : int array;  (* heap position -> insertion number *)
  mutable slots : int array;  (* heap position -> slot *)
  mutable tags : int array;  (* slot -> tag *)
  mutable payloads : 'a array;  (* slot -> payload, [filler] when free *)
  mutable free : int array;  (* free slots, [0, nfree) *)
  mutable nfree : int;
  mutable len : int;
  mutable next_seq : int;
}

let filler () : 'a = Obj.magic 0

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    tags = [||];
    payloads = [||];
    free = [||];
    nfree = 0;
    len = 0;
    next_seq = 0;
  }

let length t = t.len

let is_empty t = t.len = 0

(* Called only when full: every slot is in use and the free stack is
   empty, so each column's live prefix is the whole column. *)
let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.tags <- extend t.tags 0;
  t.payloads <- extend t.payloads (filler ());
  t.free <- Array.make ncap 0

(* The annotations matter: left polymorphic, these would compare through
   [compare] and read through the generic array primitives. *)
let[@inline] less (times : int array) (seqs : int array) i (time : int) seq =
  let ti = Array.unsafe_get times i in
  ti < time || (ti = time && Array.unsafe_get seqs i < seq)

let[@inline] set (times : int array) (seqs : int array) (slots : int array) i
    time seq slot =
  Array.unsafe_set times i time;
  Array.unsafe_set seqs i seq;
  Array.unsafe_set slots i slot

(* Move the hole at [i] up past every parent larger than the new entry,
   then fill it. *)
let rec sift_up times seqs slots i time seq slot =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less times seqs parent time seq then set times seqs slots i time seq slot
    else begin
      set times seqs slots i (Array.unsafe_get times parent)
        (Array.unsafe_get seqs parent)
        (Array.unsafe_get slots parent);
      sift_up times seqs slots parent time seq slot
    end
  end
  else set times seqs slots i time seq slot

(* Move the hole at [i] down to a leaf, each level into the smaller
   child's place, and return the leaf. *)
let rec hole_down times seqs slots len i =
  let l = (2 * i) + 1 in
  if l >= len then i
  else begin
    let r = l + 1 in
    let c =
      if
        r < len
        && less times seqs r (Array.unsafe_get times l) (Array.unsafe_get seqs l)
      then r
      else l
    in
    set times seqs slots i (Array.unsafe_get times c) (Array.unsafe_get seqs c)
      (Array.unsafe_get slots c);
    hole_down times seqs slots len c
  end

let add_tagged t ~time ~tag payload =
  if time < 0 then
    invalid_arg (Printf.sprintf "Event_queue.add: negative time %d" time);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.len = Array.length t.times then grow t;
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else t.len
  in
  t.tags.(slot) <- tag;
  t.payloads.(slot) <- payload;
  let i = t.len in
  t.len <- i + 1;
  sift_up t.times t.seqs t.slots i time seq slot

let add t ~time payload = add_tagged t ~time ~tag:0 payload

(* The accessors are inlined into the engine's dispatch loop; the raise
   stays out of line. *)
let[@inline never] empty what = invalid_arg ("Event_queue." ^ what ^ ": empty")

let[@inline] check_nonempty t what = if t.len = 0 then empty what

let[@inline] min_time t =
  check_nonempty t "min_time";
  t.times.(0)

let[@inline] min_tag t =
  check_nonempty t "min_tag";
  t.tags.(t.slots.(0))

let[@inline] min_payload t =
  check_nonempty t "min_payload";
  t.payloads.(t.slots.(0))

(* The root's slot is freed. The last triple refills the heap bottom-up:
   the root's hole goes down to a leaf and the triple sifts up from
   there. It usually belongs near the bottom, so this saves comparing it
   at every level on the way down. *)
let drop_min t =
  check_nonempty t "drop_min";
  let slot = t.slots.(0) in
  t.payloads.(slot) <- filler ();
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let times = t.times and seqs = t.seqs and slots = t.slots in
    let leaf = hole_down times seqs slots last 0 in
    sift_up times seqs slots leaf times.(last) seqs.(last) slots.(last)
  end

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and payload = t.payloads.(t.slots.(0)) in
    drop_min t;
    Some (time, payload)
  end
