(* An event is its action plus one tag word stored beside it in the queue:
   the target node in the high bits, then the advance flag (advance the
   node clock to the event time on pop) and the sampler flag (periodic
   sampler or background tick, excluded from the live count). Packing the
   three there instead of in a record is what keeps posting and
   dispatching free of per-event allocation beyond the action itself. *)
let advance_bit = 2
let sampler_bit = 1
let node_shift = 2

type ext = ..

type t = {
  machine : Machine.t;
  nodes : Node.t array;
  queue : (unit -> unit) Event_queue.t;
  mutable events_processed : int;
  mutable sink : Dpa_obs.Sink.t option;
  mutable fault : Fault.t option;
  mutable ext : ext option;
  mutable live : int;  (* pending non-sampler events *)
}

let create machine =
  {
    machine;
    nodes = Array.init machine.Machine.nodes (fun id -> Node.create ~machine ~id);
    queue = Event_queue.create ();
    events_processed = 0;
    (* Observability is opt-in: engines observe the process-global sink at
       creation time, so drivers can enable it without plumbing. *)
    sink = Dpa_obs.Sink.global ();
    (* Fault injection follows the same pattern: an explicit per-machine
       spec wins, otherwise the process-global default (the CLI's
       [--faults]) applies. Each engine gets its own plan — and hence its
       own RNG stream — so concurrent experiments stay deterministic. *)
    fault =
      (match machine.Machine.faults with
      | Some spec ->
        Some
          (Fault.make ~seed:machine.Machine.fault_seed spec
             ~nodes:machine.Machine.nodes)
      | None -> (
        match Fault.global () with
        | Some (spec, seed) ->
          Some (Fault.make ~seed spec ~nodes:machine.Machine.nodes)
        | None -> None));
    ext = None;
    live = 0;
  }

let sink t = t.sink

let set_sink t s = t.sink <- s

let fault t = t.fault

let set_fault t f = t.fault <- f

let ext t = t.ext

let set_ext t e = t.ext <- e

let machine t = t.machine

let nodes t = t.nodes

let node t i = t.nodes.(i)

let enqueue t ~time ~node ~advance ~sampler action =
  let nnodes = Array.length t.nodes in
  if node < 0 || node >= nnodes then
    invalid_arg
      (Printf.sprintf "Engine.post: bad node id %d (machine has %d nodes)" node
         nnodes);
  let tag =
    (node lsl node_shift)
    lor (if advance then advance_bit else 0)
    lor if sampler then sampler_bit else 0
  in
  Event_queue.add_tagged t.queue ~time ~tag action;
  if not sampler then t.live <- t.live + 1

let post t ~time ~node action =
  enqueue t ~time ~node ~advance:true ~sampler:false action

let post_soft t ~time ~node action =
  enqueue t ~time ~node ~advance:false ~sampler:false action

let post_now t ~node action =
  enqueue t ~time:node.Node.clock ~node:node.Node.id ~advance:true
    ~sampler:false action

(* Background events never advance a clock and are excluded from the live
   count: they neither keep the phase alive nor keep samplers ticking.
   The fault layer's crash/restart instants use them — a crash scheduled
   past the end of the phase's real work must not stretch the phase. *)
let post_background t ~time ~node action =
  enqueue t ~time ~node ~advance:false ~sampler:true action

let live_events t = t.live

let idle t = Event_queue.is_empty t.queue

let run t =
  let q = t.queue in
  while not (Event_queue.is_empty q) do
    let time = Event_queue.min_time q
    and tag = Event_queue.min_tag q
    and action = Event_queue.min_payload q in
    Event_queue.drop_min q;
    if tag land advance_bit <> 0 then
      Node.wait_until t.nodes.(tag lsr node_shift) time;
    if tag land sampler_bit = 0 then t.live <- t.live - 1;
    t.events_processed <- t.events_processed + 1;
    action ()
  done

let events_processed t = t.events_processed

let elapsed t = Array.fold_left (fun acc n -> max acc n.Node.clock) 0 t.nodes

let start_sampler t ~period_ns ~name f =
  if period_ns <= 0 then
    invalid_arg "Engine.start_sampler: period must be positive";
  match t.sink with
  | None -> ()
  | Some sink ->
    (* A self-rescheduling soft tick: it never advances a node clock (so a
       sampled run stays bit-identical to an unsampled one) and stops as
       soon as no real event is pending — the phase has drained. *)
    let rec tick time =
      enqueue t ~time ~node:0 ~advance:false ~sampler:true (fun () ->
          (* Checked before emitting: once the phase has drained, a sample
             at this tick's time would be stamped past the phase end —
             fabricated, and out of order with the next phase's events in
             a streamed JSONL export. *)
          if t.live > 0 then begin
            Array.iter
              (fun (n : Node.t) ->
                Dpa_obs.Sink.counter sink ~name ~node:n.Node.id ~ts:time (f n))
              t.nodes;
            tick (time + period_ns)
          end)
    in
    tick (elapsed t + period_ns)

let barrier t =
  if not (Event_queue.is_empty t.queue) then
    invalid_arg "Engine.barrier: events still pending";
  let m = elapsed t in
  Array.iter (fun n -> Node.wait_until n m) t.nodes;
  match t.sink with
  | None -> ()
  | Some sink ->
    Array.iter
      (fun n ->
        Dpa_obs.Sink.instant sink ~cat:"sim" ~name:"barrier" ~node:n.Node.id
          ~ts:m)
      t.nodes;
    (* A barrier is a quiescent point: every event emitted so far is
       stamped at or before [m] and everything after starts at or past it,
       so this is where a streaming event writer may safely sort and flush
       its segment (no-op when none is attached). *)
    Dpa_obs.Sink.flush_writer sink;
    (* Same quiescence argument for the happens-before window: nothing can
       extend it past the barrier, so this is where the critical-path
       analyzer consumes it (one instance per labeled phase) and the graph
       memory is reclaimed. *)
    (match Dpa_obs.Sink.causal sink with
    | Some c -> Dpa_obs.Critpath.at_barrier c
    | None -> ())
