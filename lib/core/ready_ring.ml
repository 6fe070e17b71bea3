open Dpa_heap

(* The scheduler's ready queue, flattened: a circular buffer of parallel
   (pointer, continuation, chain cursor) arrays. Pushing a ready thread
   writes pre-sized slots — no queue cell, no tuple — which keeps the
   per-access dispatch path of {!Runtime} allocation-free. A chain entry
   writes only its pointer and cursor, so a wake stores no closure here.
   Popping resets only the cursor, which tells the two kinds apart: a
   vacated slot keeps its stale pointer and continuation, so neither a
   push nor a pop pays a write barrier to clear one. The ring lives for
   one phase, so a stale closure is retained at most until its slot is
   reused or the phase ends. Capacity doubles on demand and is retained
   across strips (the working set bounds it). *)

type 'k t = {
  mutable ptrs : Gptr.t array;
  mutable ks : 'k array;
  mutable cells : int array;  (* first undispatched waiter cell, or -1 *)
  mutable head : int;  (* index of the next entry to pop *)
  mutable len : int;
  dummy : 'k;  (* fills slots never written *)
}

let create ~dummy =
  {
    ptrs = Array.make 64 Gptr.nil;
    ks = Array.make 64 dummy;
    cells = Array.make 64 (-1);
    head = 0;
    len = 0;
    dummy;
  }

let length t = t.len
let[@inline] is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.ptrs in
  let ncap = cap * 2 in
  let ptrs = Array.make ncap Gptr.nil
  and ks = Array.make ncap t.dummy
  and cells = Array.make ncap (-1) in
  for i = 0 to t.len - 1 do
    let j = (t.head + i) land (cap - 1) in
    ptrs.(i) <- t.ptrs.(j);
    ks.(i) <- t.ks.(j);
    cells.(i) <- t.cells.(j)
  done;
  t.ptrs <- ptrs;
  t.ks <- ks;
  t.cells <- cells;
  t.head <- 0

(* The tail slot, grown into if full. A vacant slot's cursor is [-1]; its
   pointer and continuation may be stale. *)
let[@inline] tail t =
  if t.len = Array.length t.ptrs then grow t;
  let i = (t.head + t.len) land (Array.length t.ptrs - 1) in
  t.len <- t.len + 1;
  i

let[@inline] push t ptr k =
  let i = tail t in
  t.ptrs.(i) <- ptr;
  t.ks.(i) <- k

let[@inline] push_chain t ptr cell =
  let i = tail t in
  t.ptrs.(i) <- ptr;
  t.cells.(i) <- cell

let[@inline] check t what = if t.len = 0 then invalid_arg ("Ready_ring." ^ what ^ ": empty")

let[@inline] head_ptr t =
  check t "head_ptr";
  t.ptrs.(t.head)

let[@inline] head_k t =
  check t "head_k";
  t.ks.(t.head)

let[@inline] head_cell t =
  check t "head_cell";
  t.cells.(t.head)

let[@inline] set_head_cell t cell =
  check t "set_head_cell";
  t.cells.(t.head) <- cell

let[@inline] drop t =
  check t "drop";
  t.cells.(t.head) <- -1;
  t.head <- (t.head + 1) land (Array.length t.ptrs - 1);
  t.len <- t.len - 1
