open Dpa_heap
module Index = Dpa_util.Index

(* M, flattened like {!Ready_ring}. Each outstanding token owns a slot in
   parallel arrays (pointer, first and last waiter, waiter count); each
   suspended thread owns a waiter cell in two more (continuation, next
   waiter of the same slot). Slots and waiter cells are recycled through
   free lists threaded through [s_head] and [w_next], so once the arrays
   have grown to the strip's working set, registering, merging and waking
   allocate nothing.

   Two {!Index}es locate slots: by token (every outstanding token) and by
   pointer (the merge target of each pointer, reuse mode only). A merge is
   one by-pointer lookup plus an append to the slot's FIFO waiter chain;
   a token is issued only after a merge (and the runtime's D probe)
   failed, so issuing does not look the pointer up again.

   A wake frees the slot at once but hands the waiter chain to the ready
   ring as one entry (the tiling of the paper: threads using the same
   object run together); the scheduler walks it with {!waiter} and
   {!pop_waiter}, which free each cell as it is dispatched. A freed cell
   keeps its stale continuation: writing the dummy back would cost a
   write barrier per dispatch, and the map lives for one phase, so the
   closure is retained only until the cell is reused or the phase ends. *)

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
  mutable s_used : int;  (* slots ever handed out *)
  mutable w_k : 'k array;
  mutable w_next : int array;  (* next waiter of the slot, or next free *)
  mutable w_free : int;
  mutable w_used : int;
  dummy : 'k;  (* fills waiter cells never handed out *)
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

let[@inline] alloc_waiter t k =
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

let issue t ~reuse ptr k =
  t.waiters <- t.waiters + 1;
  let token = t.next_token in
  t.next_token <- token + 1;
  let s = alloc_slot t in
  let w = alloc_waiter t k in
  t.s_ptr.(s) <- ptr;
  t.s_head.(s) <- w;
  t.s_tail.(s) <- w;
  t.s_count.(s) <- 1;
  t.s_keyed.(s) <- reuse;
  Index.add t.by_token token s;
  if reuse then Index.add t.by_ptr (ptr : Gptr.t :> int) s;
  token

let merge t ptr k =
  let s = Index.find t.by_ptr (ptr : Gptr.t :> int) in
  s >= 0
  && begin
       t.waiters <- t.waiters + 1;
       let w = alloc_waiter t k in
       t.w_next.(t.s_tail.(s)) <- w;
       t.s_tail.(s) <- w;
       t.s_count.(s) <- t.s_count.(s) + 1;
       true
     end

(* Consume slot [s] of [token]: its waiter chain goes onto [ring] as one
   entry and the slot returns to the free list. The cells stay allocated
   until {!pop_waiter} dispatches them. *)
let release t token s ring =
  Index.remove t.by_token token;
  let ptr = t.s_ptr.(s) in
  if t.s_keyed.(s) then Index.remove t.by_ptr (ptr : Gptr.t :> int);
  t.waiters <- t.waiters - t.s_count.(s);
  Ready_ring.push_chain ring ptr t.s_head.(s);
  t.s_ptr.(s) <- Gptr.nil;
  t.s_head.(s) <- t.s_free;
  t.s_free <- s;
  ptr

let[@inline] waiter t cell = t.w_k.(cell)

let[@inline] pop_waiter t cell =
  let next = t.w_next.(cell) in
  t.w_next.(cell) <- t.w_free;
  t.w_free <- cell;
  next

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

let reclaim t ~reuse ring =
  for _ = 1 to Ready_ring.length ring do
    let ptr = Ready_ring.head_ptr ring in
    let cell = Ready_ring.head_cell ring in
    let k = Ready_ring.head_k ring in
    Ready_ring.drop ring;
    if Gptr.node ptr = t.node then
      if cell < 0 then Ready_ring.push ring ptr k
      else Ready_ring.push_chain ring ptr cell
    else if cell < 0 then begin
      if not (reuse && merge t ptr k) then ignore (issue t ~reuse ptr k)
    end
    else begin
      let cell = ref cell in
      while !cell >= 0 do
        let k = waiter t !cell in
        cell := pop_waiter t !cell;
        if not (reuse && merge t ptr k) then ignore (issue t ~reuse ptr k)
      done
    end
  done

let token_ptr t token =
  let s = Index.find t.by_token token in
  if s < 0 then Gptr.nil else t.s_ptr.(s)

let fold_outstanding t f acc =
  Index.fold t.by_token (fun token s acc -> f token t.s_ptr.(s) acc) acc

let outstanding t = Index.size t.by_token
let waiters t = t.waiters
let is_empty t = Index.size t.by_token = 0
