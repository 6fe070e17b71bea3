open Dpa_heap
module Index = Dpa_util.Index

(* With the flat heap a renamed copy is just the object's handle (views
   alias the owner store — see {!Heap.view}), so D degenerates to a
   membership set over pointers. Its size and peak still measure exactly
   what the paper's D does: how many distinct remote objects the strip
   holds at once.

   Bounded, D is also a recency list: the index maps each pointer to a
   slot of three flat columns (its key and its neighbours toward the most
   and the least recently used end), so a touch relinks two ints and an
   eviction reuses the least recent slot in place. A slot is taken in
   order while the buffer fills and is only ever recycled by eviction; the
   columns double on demand up to the capacity. *)
type t = {
  set : Index.t;  (* pointer -> slot (bounded) or 0 *)
  capacity : int;  (* -1: unbounded *)
  mutable keys : int array;
  mutable prev : int array;  (* toward the most recently used, -1 *)
  mutable next : int array;  (* toward the least recently used, -1 *)
  mutable head : int;  (* most recently used slot, -1 when empty *)
  mutable tail : int;  (* least recently used slot, -1 when empty *)
  mutable peak : int;
  mutable evictions : int;
}

let make ~capacity =
  {
    set = Index.create ~log2:8;
    capacity;
    keys = [||];
    prev = [||];
    next = [||];
    head = -1;
    tail = -1;
    peak = 0;
    evictions = 0;
  }

let create () = make ~capacity:(-1)

let bounded ~capacity =
  if capacity < 0 then invalid_arg "Align_buffer.bounded: negative capacity";
  make ~capacity

let mem t ptr = Index.mem t.set (ptr : Gptr.t :> int)

let unlink t i =
  let p = t.prev.(i) and n = t.next.(i) in
  if p >= 0 then t.next.(p) <- n else t.head <- n;
  if n >= 0 then t.prev.(n) <- p else t.tail <- p

let push_front t i =
  t.prev.(i) <- -1;
  t.next.(i) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- i else t.tail <- i;
  t.head <- i

let touch t i =
  if t.head <> i then begin
    unlink t i;
    push_front t i
  end

let find t ptr =
  if t.capacity < 0 then mem t ptr
  else
    let i = Index.find t.set (ptr : Gptr.t :> int) in
    i >= 0
    && begin
         touch t i;
         true
       end

let grow t =
  let cap = Array.length t.keys in
  let ncap = min t.capacity (max 64 (2 * cap)) in
  let widen col =
    let c = Array.make ncap (-1) in
    Array.blit col 0 c 0 cap;
    c
  in
  t.keys <- widen t.keys;
  t.prev <- widen t.prev;
  t.next <- widen t.next

(* A free slot: the next unused one while the buffer fills, the least
   recently used one (evicted) once it is full. *)
let take_slot t =
  let n = Index.size t.set in
  if n < t.capacity then begin
    if n = Array.length t.keys then grow t;
    n
  end
  else begin
    let i = t.tail in
    unlink t i;
    Index.remove t.set t.keys.(i);
    t.evictions <- t.evictions + 1;
    i
  end

(* Capacity 0 admits each entry and evicts it at once: nothing is held,
   but the eviction counts, so [evictions] stays insertions minus
   retained entries at every capacity. *)
let add t ptr =
  let k = (ptr : Gptr.t :> int) in
  if t.capacity < 0 then Index.add t.set k 0
  else if t.capacity = 0 then t.evictions <- t.evictions + 1
  else begin
    let i = Index.find t.set k in
    if i >= 0 then touch t i
    else begin
      let i = take_slot t in
      t.keys.(i) <- k;
      Index.add t.set k i;
      push_front t i
    end
  end;
  let n = Index.size t.set in
  if n > t.peak then t.peak <- n

let size t = Index.size t.set
let peak t = t.peak
let evictions t = t.evictions

(* The index and the columns keep their grown size across strip boundaries
   instead of shrinking and re-growing every strip. *)
let clear t =
  Index.clear t.set;
  t.head <- -1;
  t.tail <- -1
