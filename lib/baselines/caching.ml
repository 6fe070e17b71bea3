open Dpa_sim
open Dpa_heap

type ctx = {
  engine : Engine.t;
  machine : Machine.t;
  heaps : Heap.cluster;
  heap : Heap.t;
  node : Node.t;
  cache : Dpa.Align_buffer.t;
      (* a bounded D: views alias the owner store ({!Heap.view}), so the
         cache tracks membership + recency only; the handle itself is the
         payload *)
  hash : bool;
  rel : bool;  (* fault plan active: arm the end-to-end fetch timer *)
  req_bytes : int;
  rto0 : int;  (* first end-to-end fetch timeout *)
  (* The work list: a flat LIFO of deferred reads (depth-first, program
     order), grown on demand. A pop leaves its continuation in place (no
     write barrier); the list lives for one phase. *)
  mutable work_ptrs : Gptr.t array;
  mutable work_ks : k array;
  mutable work_len : int;
  items : (ctx -> unit) array;
  mutable next_item : int;
  (* The one miss a node may have outstanding ([waiting]). [epoch] numbers
     the fetches: a request and its reply carry it, so a reply to an
     earlier fetch — a late duplicate from an end-to-end retry — finds
     another epoch or no miss at all and is a no-op. *)
  mutable waiting : bool;
  mutable epoch : int;
  mutable miss_ptr : Gptr.t;
  mutable miss_k : k;
  mutable attempts : int;  (* requests sent for the current miss *)
  timers : Dpa.Timer_slab.t;  (* the end-to-end fetch timer *)
  mutable scheduled : bool;
  mutable finished : bool;
  (* Event action and message handlers, built once by [make_ctx]. *)
  mutable step_act : unit -> unit;
  mutable on_request : Dpa_msg.Am.handler;
  mutable on_reply : Dpa_msg.Am.handler;
  mutable hits : int;
  mutable misses : int;
  mutable local : int;
  mutable retries : int;  (* end-to-end fetch re-issues under faults *)
}

and k = ctx -> Heap.view -> unit

type stats = {
  hits : int;
  misses : int;
  local : int;
  evictions : int;
  peak_cached : int;
  retries : int;
}

let node_id ctx = ctx.node.Node.id
let heaps ctx = ctx.heaps
let node ctx = ctx.node
let no_k : k = fun _ _ -> ()

(* Reads are deferred onto the work list; the step loop resolves them one
   at a time. This realizes blocking semantics: at most one outstanding
   remote operation per node, in depth-first program order. *)
let read ctx ptr k =
  if Gptr.is_nil ptr then invalid_arg "Caching.read: nil pointer";
  let n = ctx.work_len in
  if n = Array.length ctx.work_ptrs then begin
    let grow a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n;
      b
    in
    ctx.work_ptrs <- grow ctx.work_ptrs Gptr.nil;
    ctx.work_ks <- grow ctx.work_ks no_k
  end;
  ctx.work_ptrs.(n) <- ptr;
  ctx.work_ks.(n) <- k;
  ctx.work_len <- n + 1

let accumulate ctx ptr ~idx value =
  if Gptr.is_nil ptr then invalid_arg "Caching.accumulate: nil pointer";
  let m = ctx.machine in
  if Gptr.node ptr = ctx.node.Node.id then begin
    Node.charge_local ctx.node m.Machine.update_apply_ns;
    Heap.bump_float ctx.heap ptr ~idx value
  end
  else begin
    (* One put-style message per update: no combining, no aggregation, but
       also no blocking (puts complete asynchronously). *)
    let bytes = Dpa_msg.Am.update_bytes m ~nupdates:1 in
    Dpa_msg.Am.send_data ctx.engine ~src:ctx.node ~dst:(Gptr.node ptr) ~bytes
      (fun owner _ _ _ ->
        Node.charge_comm owner m.Machine.update_apply_ns;
        Heap.bump_float ctx.heaps.(Gptr.node ptr) ptr ~idx value)
      0 0 [||]
  end

let ensure_scheduled ctx =
  if not ctx.scheduled then begin
    ctx.scheduled <- true;
    Engine.post ctx.engine ~kind:Engine.Work ~time:ctx.node.Node.clock
      ~node:ctx.node.Node.id ctx.step_act
  end

(* Resolve deferred reads, then start items, for at most one poll
   quantum. *)
let rec step ctx start quantum =
  if ctx.waiting then ()
  else if ctx.node.Node.clock - start >= quantum then ensure_scheduled ctx
  else if ctx.work_len > 0 then begin
    let n = ctx.work_len - 1 in
    let ptr = ctx.work_ptrs.(n) and k = ctx.work_ks.(n) in
    ctx.work_len <- n;
    resolve ctx ptr k;
    step ctx start quantum
  end
  else if ctx.next_item < Array.length ctx.items then begin
    let item = ctx.items.(ctx.next_item) in
    ctx.next_item <- ctx.next_item + 1;
    item ctx;
    step ctx start quantum
  end
  else ctx.finished <- true

and resolve ctx ptr k =
  (* Olden-style caching sends every global access through the software
     test-and-hash, local data included — the hashing overhead the paper
     credits DPA with minimizing. *)
  if ctx.hash then Node.charge_comm ctx.node ctx.machine.Machine.hash_probe_ns;
  if Gptr.node ptr = ctx.node.Node.id then begin
    ctx.local <- ctx.local + 1;
    k ctx ptr
  end
  else if Dpa.Align_buffer.find ctx.cache ptr then begin
    ctx.hits <- ctx.hits + 1;
    k ctx ptr
  end
  else begin
    ctx.misses <- ctx.misses + 1;
    ctx.waiting <- true;
    ctx.epoch <- ctx.epoch + 1;
    ctx.miss_ptr <- ptr;
    ctx.miss_k <- k;
    ctx.attempts <- 0;
    fetch ctx ~rto:ctx.rto0
  end

(* The blocking fetch. Under a fault plan it grows the same two defence
   layers the DPA runtime has: the transport retransmits each message until
   acked, and an end-to-end timer re-issues the whole fetch with capped
   exponential backoff in case the owner is wedged. The request names the
   slot and the epoch; the reply echoes the epoch, which makes completion
   idempotent — a duplicate reply from a spurious retry must not unblock
   the node twice or re-run the continuation. *)
and fetch ctx ~rto =
  let ptr = ctx.miss_ptr and epoch = ctx.epoch in
  ctx.attempts <- ctx.attempts + 1;
  Dpa_msg.Am.send_data ctx.engine ~src:ctx.node ~dst:(Gptr.node ptr)
    ~bytes:ctx.req_bytes ctx.on_request (Gptr.slot ptr) epoch [||];
  if ctx.rel then
    Dpa.Timer_slab.arm ctx.timers Dpa.Timer_slab.Fetch ~id:epoch
      ~dst:(Gptr.node ptr) ~rto [||]

(* The fetch timer of epoch [epoch]: a no-op once that fetch completed. *)
and fetch_timeout ctx kind ~id:epoch ~dst:_ ~rto ~deadline _ =
  assert (kind = Dpa.Timer_slab.Fetch);
  if ctx.waiting && ctx.epoch = epoch then begin
    Node.wait_until ctx.node deadline;
    ctx.retries <- ctx.retries + 1;
    (match Engine.sink ctx.engine with
    | None -> ()
    | Some sink ->
      Dpa_obs.Metrics.add
        (Dpa_obs.Metrics.counter (Dpa_obs.Sink.metrics sink) "retries.cache")
        1;
      Dpa_obs.Sink.instant sink ~cat:"runtime" ~name:"retry"
        ~node:(node_id ctx) ~ts:ctx.node.Node.clock);
    fetch ctx ~rto:(Dpa.Timer_slab.backoff ~rto ~cap:(1024 * ctx.rto0))
  end

(* Owner side: service the request and reply with the object. *)
and serve ctx owner slot epoch =
  let m = ctx.machine in
  Node.charge_comm owner
    (m.Machine.request_service_ns + m.Machine.request_service_per_obj_ns);
  let ptr = Gptr.make ~node:owner.Node.id ~slot in
  let payload = Heap.obj_bytes ctx.heaps.(owner.Node.id) ptr in
  let reply = Dpa_msg.Am.reply_bytes m ~payload ~nreqs:1 in
  Dpa_msg.Am.send_data ctx.engine ~src:owner ~dst:ctx.node.Node.id
    ~bytes:reply ctx.on_reply slot epoch [||]

and complete ctx epoch =
  if ctx.waiting && ctx.epoch = epoch then begin
    let ptr = ctx.miss_ptr and k = ctx.miss_k in
    ctx.miss_k <- no_k;
    Dpa.Align_buffer.add ctx.cache ptr;
    ctx.waiting <- false;
    k ctx ptr;
    ensure_scheduled ctx
  end

let make_ctx ~engine ~heaps ~capacity ~hash ~items node =
  let m = Engine.machine engine in
  let req_bytes = Dpa_msg.Am.request_bytes m ~nreqs:1 in
  let ctx =
    {
      engine;
      machine = m;
      heaps;
      heap = heaps.(node.Node.id);
      node;
      cache = Dpa.Align_buffer.bounded ~capacity;
      hash;
      rel = Engine.fault engine <> None;
      req_bytes;
      rto0 = 8 * Dpa_msg.Am.initial_rto m ~bytes:req_bytes;
      work_ptrs = Array.make 64 Gptr.nil;
      work_ks = Array.make 64 no_k;
      work_len = 0;
      items;
      next_item = 0;
      waiting = false;
      epoch = 0;
      miss_ptr = Gptr.nil;
      miss_k = no_k;
      attempts = 0;
      timers = Dpa.Timer_slab.create engine node;
      scheduled = false;
      finished = false;
      step_act = ignore;
      on_request = Dpa_msg.Am.no_handler;
      on_reply = Dpa_msg.Am.no_handler;
      hits = 0;
      misses = 0;
      local = 0;
      retries = 0;
    }
  in
  ctx.step_act <-
    (fun () ->
      ctx.scheduled <- false;
      step ctx node.Node.clock m.Machine.poll_quantum_ns);
  ctx.on_request <- (fun owner slot epoch _ -> serve ctx owner slot epoch);
  ctx.on_reply <- (fun _ _ epoch _ -> complete ctx epoch);
  Dpa.Timer_slab.set_handler ctx.timers (fetch_timeout ctx);
  ctx

let quiescence_failure ctx =
  failwith
    (Printf.sprintf
       "Caching.run_phase: node %d did not quiesce (finished=%b, work=%d, \
        items %d/%d, waiting=%b; miss %s epoch %d after %d attempt(s); %d \
        hits, %d misses, %d local, %d retries)"
       ctx.node.Node.id ctx.finished ctx.work_len ctx.next_item
       (Array.length ctx.items) ctx.waiting (Gptr.show ctx.miss_ptr) ctx.epoch
       ctx.attempts ctx.hits ctx.misses ctx.local ctx.retries)

let run_phase ~engine ~heaps ~capacity ?(hash = true) ~items () =
  let nodes = Engine.nodes engine in
  Engine.barrier engine;
  Array.iter Node.reset_breakdown nodes;
  let start = Engine.elapsed engine in
  let ctxs =
    Array.map
      (fun node ->
        make_ctx ~engine ~heaps ~capacity ~hash ~items:(items node.Node.id) node)
      nodes
  in
  Array.iter ensure_scheduled ctxs;
  Engine.run engine;
  Array.iter
    (fun ctx ->
      if not (ctx.finished && ctx.work_len = 0 && not ctx.waiting) then
        quiescence_failure ctx)
    ctxs;
  Dpa_msg.Am.certify_barrier engine ~caller:"Caching.run_phase";
  Engine.barrier engine;
  let elapsed_ns = Engine.elapsed engine - start in
  let breakdown = Breakdown.of_nodes ~elapsed_ns nodes in
  let stats =
    Array.fold_left
      (fun acc (c : ctx) ->
        {
          hits = acc.hits + c.hits;
          misses = acc.misses + c.misses;
          local = acc.local + c.local;
          evictions = acc.evictions + Dpa.Align_buffer.evictions c.cache;
          peak_cached = max acc.peak_cached (Dpa.Align_buffer.peak c.cache);
          retries = acc.retries + c.retries;
        })
      {
        hits = 0;
        misses = 0;
        local = 0;
        evictions = 0;
        peak_cached = 0;
        retries = 0;
      }
      ctxs
  in
  (breakdown, stats)
