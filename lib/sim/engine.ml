(* An event is its action plus one tag word stored beside it in the queue:
   the target node in the high bits, then the kind's code in the low two
   (see [code]). Packing both there instead of in a record is what keeps
   posting and dispatching free of per-event allocation beyond the action
   itself. *)
let advance_bit = 2
let background_bit = 1
let node_shift = 2

type kind = Work | Soft | Background

(* A kind's code is its two tag bits: [advance_bit] advances the node clock
   to the event time on pop, [background_bit] keeps the event out of the
   live count. No kind sets both. *)
let code = function
  | Work -> advance_bit
  | Soft -> 0
  | Background -> background_bit

type ext = ..

type t = {
  machine : Machine.t;
  nodes : Node.t array;
  queue : (unit -> unit) Event_queue.t;
  mutable events_processed : int;
  mutable sink : Dpa_obs.Sink.t option;
  mutable fault : Fault.t option;
  mutable ext : ext option;
  mutable live : int;  (* pending non-background events *)
}

let create machine =
  {
    machine;
    nodes = Array.init machine.Machine.nodes (fun id -> Node.create ~id);
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

let post ?(kind = Work) t ~time ~node action =
  let nnodes = Array.length t.nodes in
  if node < 0 || node >= nnodes then
    invalid_arg
      (Printf.sprintf "Engine.post: bad node id %d (machine has %d nodes)" node
         nnodes);
  let code = code kind in
  Event_queue.add_tagged t.queue ~time ~tag:((node lsl node_shift) lor code)
    action;
  if code land background_bit = 0 then t.live <- t.live + 1

let live_events t = t.live

let run t =
  let q = t.queue in
  while not (Event_queue.is_empty q) do
    let time = Event_queue.min_time q
    and tag = Event_queue.min_tag q
    and action = Event_queue.min_payload q in
    Event_queue.drop_min q;
    if tag land advance_bit <> 0 then
      Node.wait_until t.nodes.(tag lsr node_shift) time;
    if tag land background_bit = 0 then t.live <- t.live - 1;
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
    (* A self-rescheduling background tick: it never advances a node clock
       (so a sampled run stays bit-identical to an unsampled one) and stops
       as soon as no real event is pending — the phase has drained. *)
    let rec tick time =
      post t ~kind:Background ~time ~node:0 (fun () ->
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
  let q = t.queue in
  if not (Event_queue.is_empty q) then
    invalid_arg
      (Printf.sprintf
         "Engine.barrier: %d events still pending (%d live), the earliest at \
          t=%d ns on node %d"
         (Event_queue.length q) t.live (Event_queue.min_time q)
         (Event_queue.min_tag q lsr node_shift));
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
