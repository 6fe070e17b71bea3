(* Binary min-heap keyed by (time, seq), stored struct-of-arrays: the
   times, sequence numbers, caller tags and payloads of the heap's entries
   live in four parallel arrays, so adding an event writes pre-sized slots
   instead of allocating a cell, and the split pop ([min_*] then
   [drop_min]) builds no option or tuple. The [seq] counter implements the
   FIFO tie-break documented in the interface.

   Sifting moves entries into a hole instead of swapping, so each level
   costs one store per array. Vacated payload slots are overwritten with
   [filler] — an immediate, so a popped payload is never kept alive by the
   queue. The payload array is only ever accessed through polymorphic
   array primitives, which dispatch on the array's runtime tag; since the
   array is created from an immediate it is never a flat float array, and
   a float payload is stored boxed like any other value. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable tags : int array;
  mutable payloads : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

let filler () : 'a = Obj.magic 0

let create () =
  { times = [||]; seqs = [||]; tags = [||]; payloads = [||]; len = 0; next_seq = 0 }

let length t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.times in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.tags <- extend t.tags 0;
  t.payloads <- extend t.payloads (filler ())

let[@inline] less t i time seq =
  let ti = t.times.(i) in
  ti < time || (ti = time && t.seqs.(i) < seq)

let[@inline] move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.tags.(dst) <- t.tags.(src);
  t.payloads.(dst) <- t.payloads.(src)

let[@inline] set t i time seq tag payload =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.tags.(i) <- tag;
  t.payloads.(i) <- payload

(* Move the hole at [i] up past every parent larger than the new entry,
   then fill it. *)
let rec sift_up t i time seq tag payload =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t parent time seq then set t i time seq tag payload
    else begin
      move t ~src:parent ~dst:i;
      sift_up t parent time seq tag payload
    end
  end
  else set t i time seq tag payload

(* Move the hole at [i] down past every child smaller than the entry being
   re-inserted, then fill it. *)
let rec sift_down t i time seq tag payload =
  let l = (2 * i) + 1 in
  if l >= t.len then set t i time seq tag payload
  else begin
    let r = l + 1 in
    let c = if r < t.len && less t r t.times.(l) t.seqs.(l) then r else l in
    if less t c time seq then begin
      move t ~src:c ~dst:i;
      sift_down t c time seq tag payload
    end
    else set t i time seq tag payload
  end

let add_tagged t ~time ~tag payload =
  if time < 0 then
    invalid_arg (Printf.sprintf "Event_queue.add: negative time %d" time);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.len = Array.length t.times then grow t;
  t.len <- t.len + 1;
  sift_up t (t.len - 1) time seq tag payload

let add t ~time payload = add_tagged t ~time ~tag:0 payload

let check_nonempty t what =
  if t.len = 0 then invalid_arg ("Event_queue." ^ what ^ ": empty")

let min_time t =
  check_nonempty t "min_time";
  t.times.(0)

let min_tag t =
  check_nonempty t "min_tag";
  t.tags.(0)

let min_payload t =
  check_nonempty t "min_payload";
  t.payloads.(0)

(* The last entry refills the root's hole; its own slot is vacated. *)
let drop_min t =
  check_nonempty t "drop_min";
  let last = t.len - 1 in
  t.len <- last;
  let time = t.times.(last)
  and seq = t.seqs.(last)
  and tag = t.tags.(last)
  and payload = t.payloads.(last) in
  t.payloads.(last) <- filler ();
  if last > 0 then sift_down t 0 time seq tag payload

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) and payload = t.payloads.(0) in
    drop_min t;
    Some (time, payload)
  end

let peek_time t = if t.len = 0 then None else Some t.times.(0)
