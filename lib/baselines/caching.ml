open Dpa_sim
open Dpa_heap
module Lru = Dpa_util.Lru.Make (Gptr.Tbl)

type ctx = {
  engine : Engine.t;
  machine : Machine.t;
  heaps : Heap.cluster;
  heap : Heap.t;
  node : Node.t;
  cache : unit Lru.t;
      (* views alias the owner store ({!Heap.view}), so the cache tracks
         membership + recency only; the handle itself is the payload *)
  hash : bool;
  work : (Gptr.t * k) Stack.t;  (* LIFO: depth-first, program order *)
  mutable items : (ctx -> unit) array;
  mutable next_item : int;
  mutable waiting : bool;  (* a miss is in flight; nothing else may run *)
  mutable scheduled : bool;
  mutable finished : bool;
  mutable hits : int;
  mutable misses : int;
  mutable local : int;
  mutable peak_cached : int;
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

let pp_stats ppf s =
  Format.fprintf ppf
    "@[cache: %d hits, %d misses, %d local, %d evictions, peak %d objects, \
     %d retries@]"
    s.hits s.misses s.local s.evictions s.peak_cached s.retries

let node_id ctx = ctx.node.Node.id
let heaps ctx = ctx.heaps
let charge ctx ns = Node.charge_local ctx.node ns

(* Reads are deferred onto the work stack; the step loop resolves them one
   at a time. This realizes blocking semantics: at most one outstanding
   remote operation per node, in depth-first program order. *)
let read ctx ptr k =
  if Gptr.is_nil ptr then invalid_arg "Caching.read: nil pointer";
  Stack.push (ptr, k) ctx.work

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
    Dpa_msg.Am.send ctx.engine ~src:ctx.node ~dst:(Gptr.node ptr) ~bytes
      (fun owner ->
        Node.charge_comm owner m.Machine.update_apply_ns;
        Heap.bump_float ctx.heaps.(Gptr.node ptr) ptr ~idx value)
  end

let rec ensure_scheduled ctx =
  if not ctx.scheduled then begin
    ctx.scheduled <- true;
    Engine.post_now ctx.engine ~node:ctx.node (fun () ->
        ctx.scheduled <- false;
        step ctx)
  end

and step ctx =
  if ctx.waiting then ()
  else begin
    let quantum = ctx.machine.Machine.poll_quantum_ns in
    let start = ctx.node.Node.clock in
    let rec loop () =
      if ctx.waiting then ()
      else if ctx.node.Node.clock - start >= quantum then ensure_scheduled ctx
      else
        match Stack.pop_opt ctx.work with
        | Some (ptr, k) -> resolve ctx ptr k; loop ()
        | None ->
          if ctx.next_item < Array.length ctx.items then begin
            let item = ctx.items.(ctx.next_item) in
            ctx.next_item <- ctx.next_item + 1;
            item ctx;
            loop ()
          end
          else ctx.finished <- true
    in
    loop ()
  end

and resolve ctx ptr k =
  (* Olden-style caching sends every global access through the software
     test-and-hash, local data included — the hashing overhead the paper
     credits DPA with minimizing. *)
  if ctx.hash then Node.charge_comm ctx.node ctx.machine.Machine.hash_probe_ns;
  if Gptr.node ptr = ctx.node.Node.id then begin
    ctx.local <- ctx.local + 1;
    k ctx ptr
  end
  else begin
    match Lru.find ctx.cache ptr with
    | Some () ->
      ctx.hits <- ctx.hits + 1;
      k ctx ptr
    | None ->
      ctx.misses <- ctx.misses + 1;
      ctx.waiting <- true;
      fetch ctx ptr k
  end

(* The blocking fetch. Under a fault plan it grows the same two defence
   layers the DPA runtime has: the transport retransmits each message until
   acked, and an end-to-end timer re-issues the whole fetch with capped
   exponential backoff in case the owner is wedged. The [completed] latch
   makes the continuation idempotent — a duplicate reply from a spurious
   retry must not unblock the node twice or re-run [k]. *)
and fetch ctx ptr k =
  let m = ctx.machine in
  let bytes = Dpa_msg.Am.request_bytes m ~nreqs:1 in
  let rel = Engine.fault ctx.engine <> None in
  let completed = ref false in
  let rto0 = 8 * Dpa_msg.Am.initial_rto m ~bytes in
  let rec attempt ~rto =
    Dpa_msg.Am.send ctx.engine ~src:ctx.node ~dst:(Gptr.node ptr) ~bytes
      (fun owner ->
        Node.charge_comm owner
          (m.Machine.request_service_ns + m.Machine.request_service_per_obj_ns);
        let payload = Heap.obj_bytes ctx.heaps.(Gptr.node ptr) ptr in
        let reply = Dpa_msg.Am.reply_bytes m ~payload ~nreqs:1 in
        Dpa_msg.Am.send ctx.engine ~src:owner ~dst:ctx.node.Node.id
          ~bytes:reply (fun _self ->
            if not !completed then begin
              completed := true;
              Lru.add ctx.cache ptr ();
              let n = Lru.size ctx.cache in
              if n > ctx.peak_cached then ctx.peak_cached <- n;
              ctx.waiting <- false;
              k ctx ptr;
              ensure_scheduled ctx
            end));
    if rel then begin
      let deadline = ctx.node.Node.clock + rto in
      Engine.post_soft ctx.engine ~time:deadline ~node:(node_id ctx) (fun () ->
          if not !completed then begin
            Node.wait_until ctx.node deadline;
            ctx.retries <- ctx.retries + 1;
            (match Engine.sink ctx.engine with
            | None -> ()
            | Some sink ->
              Dpa_obs.Metrics.add
                (Dpa_obs.Metrics.counter (Dpa_obs.Sink.metrics sink)
                   "retries.cache")
                1;
              Dpa_obs.Sink.instant sink ~cat:"runtime" ~name:"retry"
                ~node:(node_id ctx) ~ts:ctx.node.Node.clock);
            attempt ~rto:(min (2 * rto) (1024 * rto0))
          end)
    end
  in
  attempt ~rto:rto0

let make_ctx ~engine ~heaps ~capacity ~hash ~items node =
  {
    engine;
    machine = Engine.machine engine;
    heaps;
    heap = heaps.(node.Node.id);
    node;
    cache = Lru.create ~capacity;
    hash;
    work = Stack.create ();
    items;
    next_item = 0;
    waiting = false;
    scheduled = false;
    finished = false;
    hits = 0;
    misses = 0;
    local = 0;
    peak_cached = 0;
    retries = 0;
  }

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
      if not (ctx.finished && Stack.is_empty ctx.work && not ctx.waiting) then
        failwith
          (Printf.sprintf
             "Caching.run_phase: node %d did not quiesce (finished=%b, \
              work=%d, waiting=%b)"
             ctx.node.Node.id ctx.finished (Stack.length ctx.work) ctx.waiting))
    ctxs;
  (* Same phase-barrier hygiene as [Dpa.Runtime]: with the transport
     quiescent the receiver dedup tables are reclaimable. *)
  if Engine.fault engine <> None && Dpa_msg.Am.in_flight engine = 0 then
    ignore (Dpa_msg.Am.prune_seen engine);
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
          evictions = acc.evictions + Lru.evictions c.cache;
          peak_cached = max acc.peak_cached c.peak_cached;
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
