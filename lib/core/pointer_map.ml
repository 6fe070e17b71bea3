open Dpa_heap

(* M, flattened like {!Ready_ring}. Each outstanding token owns a slot in
   parallel arrays (pointer, first and last waiter, waiter count); each
   suspended thread owns a waiter cell in two more (continuation, next
   waiter of the same slot). Slots and waiter cells are recycled through
   free lists threaded through [s_head] and [w_next], so once the arrays
   have grown to the strip's working set, registering, merging and waking
   allocate nothing.

   Two open-addressing indexes locate slots: by token (every outstanding
   token) and by pointer (the merge target of each pointer, reuse mode
   only). A merge is one by-pointer lookup plus an append to the slot's
   FIFO waiter chain. *)

(* int -> int map over non-negative keys: linear probing with
   backward-shift deletion, [-1] marking both an empty bucket and an
   absent key, so a lookup neither allocates nor raises. Fibonacci
   hashing takes the top bits of a 63-bit product, which spreads both
   consecutive tokens and packed pointers (whose node bits sit above the
   slot bits) over the whole table. *)
module Index = struct
  type t = {
    mutable keys : int array;
    mutable vals : int array;
    mutable shift : int;  (* 63 - log2 (capacity) *)
    mutable size : int;
  }

  let create ~log2 =
    {
      keys = Array.make (1 lsl log2) (-1);
      vals = Array.make (1 lsl log2) 0;
      shift = 63 - log2;
      size = 0;
    }

  let[@inline] home t k = (k * 0x4F1BBCDCBFA53E0B) lsr t.shift

  (* The bucket holding [k], or the empty bucket ending its probe run. *)
  let rec probe keys mask k i =
    let x = keys.(i) in
    if x = k || x < 0 then i else probe keys mask k ((i + 1) land mask)

  let find t k =
    let i = probe t.keys (Array.length t.keys - 1) k (home t k) in
    if t.keys.(i) = k then t.vals.(i) else -1

  let rec add t k v =
    let cap = Array.length t.keys in
    if 2 * (t.size + 1) > cap then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * cap) (-1);
      t.vals <- Array.make (2 * cap) 0;
      t.shift <- t.shift - 1;
      t.size <- 0;
      Array.iteri (fun i k' -> if k' >= 0 then add t k' vals.(i)) keys
    end;
    let i = probe t.keys (Array.length t.keys - 1) k (home t k) in
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1

  (* Backward-shift deletion: walk the probe run after the vacated bucket
     and pull back every entry whose home is not cyclically in
     (hole, j] — it would be unreachable past the new empty bucket. *)
  let remove t k =
    let mask = Array.length t.keys - 1 in
    let i = probe t.keys mask k (home t k) in
    if t.keys.(i) = k then begin
      t.size <- t.size - 1;
      let hole = ref i and j = ref ((i + 1) land mask) in
      while t.keys.(!j) >= 0 do
        let h = home t t.keys.(!j) in
        let stays =
          if !hole < !j then h > !hole && h <= !j else h > !hole || h <= !j
        in
        if not stays then begin
          t.keys.(!hole) <- t.keys.(!j);
          t.vals.(!hole) <- t.vals.(!j);
          hole := !j
        end;
        j := (!j + 1) land mask
      done;
      t.keys.(!hole) <- -1
    end

  let fold t f acc =
    let acc = ref acc in
    Array.iteri (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc) t.keys;
    !acc

  let clear t =
    if t.size > 0 then begin
      Array.fill t.keys 0 (Array.length t.keys) (-1);
      t.size <- 0
    end
end

type 'k t = {
  node : int;  (* owning node, named in protocol errors *)
  by_token : Index.t;  (* outstanding token -> slot *)
  by_ptr : Index.t;  (* pointer -> slot its reads merge onto (reuse mode) *)
  mutable s_ptr : Gptr.t array;
  mutable s_head : int array;  (* first waiter; next free slot when free *)
  mutable s_tail : int array;
  mutable s_count : int array;
  mutable s_keyed : bool array;  (* the slot is [by_ptr]'s entry *)
  mutable s_free : int;
  mutable s_used : int;  (* slots ever handed out since the last clear *)
  mutable w_k : 'k array;
  mutable w_next : int array;  (* next waiter of the slot, or next free *)
  mutable w_free : int;
  mutable w_used : int;
  dummy : 'k;  (* fills vacated waiter cells so woken closures are not retained *)
  mutable next_token : int;
  mutable waiters : int;
}

let create ~node ~dummy =
  {
    node;
    by_token = Index.create ~log2:6;
    by_ptr = Index.create ~log2:6;
    s_ptr = Array.make 16 Gptr.nil;
    s_head = Array.make 16 (-1);
    s_tail = Array.make 16 (-1);
    s_count = Array.make 16 0;
    s_keyed = Array.make 16 false;
    s_free = -1;
    s_used = 0;
    w_k = Array.make 64 dummy;
    w_next = Array.make 64 (-1);
    w_free = -1;
    w_used = 0;
    dummy;
    next_token = 0;
    waiters = 0;
  }

let extend a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let alloc_slot t =
  if t.s_free >= 0 then begin
    let s = t.s_free in
    t.s_free <- t.s_head.(s);
    s
  end
  else begin
    if t.s_used = Array.length t.s_ptr then begin
      t.s_ptr <- extend t.s_ptr Gptr.nil;
      t.s_head <- extend t.s_head (-1);
      t.s_tail <- extend t.s_tail (-1);
      t.s_count <- extend t.s_count 0;
      t.s_keyed <- extend t.s_keyed false
    end;
    let s = t.s_used in
    t.s_used <- s + 1;
    s
  end

let alloc_waiter t k =
  let w =
    if t.w_free >= 0 then begin
      let w = t.w_free in
      t.w_free <- t.w_next.(w);
      w
    end
    else begin
      if t.w_used = Array.length t.w_k then begin
        t.w_k <- extend t.w_k t.dummy;
        t.w_next <- extend t.w_next (-1)
      end;
      let w = t.w_used in
      t.w_used <- w + 1;
      w
    end
  in
  t.w_k.(w) <- k;
  t.w_next.(w) <- -1;
  w

let fresh t ~keyed ptr k =
  let token = t.next_token in
  t.next_token <- token + 1;
  let s = alloc_slot t in
  let w = alloc_waiter t k in
  t.s_ptr.(s) <- ptr;
  t.s_head.(s) <- w;
  t.s_tail.(s) <- w;
  t.s_count.(s) <- 1;
  t.s_keyed.(s) <- keyed;
  Index.add t.by_token token s;
  if keyed then Index.add t.by_ptr (ptr : Gptr.t :> int) s;
  token

let register t ~reuse ptr k =
  t.waiters <- t.waiters + 1;
  if reuse then begin
    let s = Index.find t.by_ptr (ptr : Gptr.t :> int) in
    if s >= 0 then begin
      let w = alloc_waiter t k in
      t.w_next.(t.s_tail.(s)) <- w;
      t.s_tail.(s) <- w;
      t.s_count.(s) <- t.s_count.(s) + 1;
      `Merged
    end
    else `New_request (fresh t ~keyed:true ptr k)
  end
  else `New_request (fresh t ~keyed:false ptr k)

(* Consume slot [s] of [token]: its waiters go onto [ring] in registration
   order and every cell returns to the free lists. *)
let release t token s ring =
  Index.remove t.by_token token;
  let ptr = t.s_ptr.(s) in
  if t.s_keyed.(s) then Index.remove t.by_ptr (ptr : Gptr.t :> int);
  t.waiters <- t.waiters - t.s_count.(s);
  let w = ref t.s_head.(s) in
  while !w >= 0 do
    let cell = !w in
    w := t.w_next.(cell);
    Ready_ring.push ring ptr t.w_k.(cell);
    t.w_k.(cell) <- t.dummy;
    t.w_next.(cell) <- t.w_free;
    t.w_free <- cell
  done;
  t.s_ptr.(s) <- Gptr.nil;
  t.s_head.(s) <- t.s_free;
  t.s_free <- s;
  ptr

let take t token ring =
  let s = Index.find t.by_token token in
  if s < 0 then
    failwith
      (Printf.sprintf
         "Pointer_map.take: node %d got a reply for token %d, which is not \
          outstanding (never issued or already consumed)"
         t.node token);
  release t token s ring

let take_or_nil t token ring =
  let s = Index.find t.by_token token in
  if s < 0 then Gptr.nil else release t token s ring

let find_ptr t token =
  let s = Index.find t.by_token token in
  if s < 0 then None else Some t.s_ptr.(s)

let fold_outstanding t f acc =
  Index.fold t.by_token (fun token s acc -> f token t.s_ptr.(s) acc) acc

let outstanding t = t.by_token.Index.size
let waiters t = t.waiters
let is_empty t = t.by_token.Index.size = 0

let clear t =
  Index.clear t.by_token;
  Index.clear t.by_ptr;
  Array.fill t.w_k 0 t.w_used t.dummy;
  Array.fill t.s_ptr 0 t.s_used Gptr.nil;
  t.w_used <- 0;
  t.w_free <- -1;
  t.s_used <- 0;
  t.s_free <- -1;
  t.waiters <- 0
