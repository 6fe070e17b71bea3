open Dpa_sim

let test_event_queue_order () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:30 "c";
  Event_queue.add q ~time:10 "a";
  Event_queue.add q ~time:20 "b";
  Alcotest.(check (option (pair int string))) "a" (Some (10, "a")) (Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "b" (Some (20, "b")) (Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "c" (Some (30, "c")) (Event_queue.pop q);
  Alcotest.(check (option (pair int string))) "empty" None (Event_queue.pop q)

let test_event_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.add q ~time:5 i
  done;
  for i = 0 to 9 do
    match Event_queue.pop q with
    | Some (5, x) -> Alcotest.(check int) "fifo" i x
    | _ -> Alcotest.fail "bad pop"
  done

let qcheck_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops sorted by time" ~count:300
    QCheck.(small_list small_nat)
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.add q ~time:t ()) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, ()) -> drain (t :: acc)
      in
      let popped = drain [] in
      popped = List.sort compare times)

module Keys = Set.Make (struct
  type t = int * int

  let compare = compare
end)

(* Interleaved adds and pops against a set ordered by (time,
   insertion): payloads and tags must come back with their keys, through
   both the allocation-free accessors and [pop]. Three ops in four are
   adds over 13 distinct times, so ties are dense, and each pop frees a
   slot that a later add reuses. *)
let event_queue_matches_model ops =
  let q = Event_queue.create () in
  let model = ref Keys.empty and size = ref 0 and n = ref 0 in
  List.for_all
    (function
      | Some time ->
        let i = !n in
        incr n;
        Event_queue.add_tagged q ~time ~tag:(3 * i) (string_of_int i);
        model := Keys.add (time, i) !model;
        incr size;
        Event_queue.length q = !size
      | None -> (
        match Keys.min_elt_opt !model with
        | None -> Event_queue.is_empty q && Event_queue.pop q = None
        | Some ((time, i) as key) ->
          model := Keys.remove key !model;
          decr size;
          Event_queue.min_time q = time
          && Event_queue.min_tag q = 3 * i
          && Event_queue.min_payload q = string_of_int i
          && Event_queue.pop q = Some (time, string_of_int i)))
    ops

let model_op = QCheck.(option ~ratio:0.75 (int_range 0 12))

(* Up to 600 ops: the queue crosses the 16..256 growth boundaries. *)
let qcheck_event_queue_model =
  QCheck.Test.make
    ~name:"event queue matches a (time, insertion) sorted model under interleaved add/pop"
    ~count:300
    QCheck.(list_of_size Gen.(int_range 0 600) model_op)
    event_queue_matches_model

(* 1,000-20,000 ops reach depths of several thousand, past the faulted
   workloads' deepest queues of retransmit timers, and carry reused slots
   across the 512..8192 growth boundaries. A failure shrinks only by
   cutting the op list's tail, a logarithmic number of times: the
   element-wise list shrinker would re-run the whole list once per op. *)
let qcheck_event_queue_model_deep =
  let cut_tail ops yield =
    let n = List.length ops in
    let rec go k =
      if k > 0 then (
        yield (List.filteri (fun i _ -> i < n - k) ops);
        go (k / 2))
    in
    go (n / 2)
  in
  QCheck.Test.make ~name:"event queue matches the model at depths of thousands"
    ~count:50
    QCheck.(
      list_of_size Gen.(int_range 1_000 20_000) model_op
      |> set_shrink cut_tail
      |> set_print (fun ops -> Printf.sprintf "%d ops" (List.length ops)))
    event_queue_matches_model

(* A popped payload must not stay reachable from the queue: neither from
   its freed slot, nor after the slot is reused, nor from spare capacity
   filled when the queue grew. Payloads 0-15 fill the first 16 slots;
   popping 0-7 frees eight of them, which payloads 16-23 reuse; payloads
   24-39 then force a growth to 32 that carries every reused slot across. *)
let test_event_queue_releases_popped () =
  let q = Event_queue.create () in
  let n = 40 in
  let w = Weak.create n in
  let add i =
    let payload = Bytes.make 16 (Char.chr (48 + i)) in
    Weak.set w i (Some payload);
    Event_queue.add q ~time:i payload
  in
  let pop_expect i =
    match Event_queue.pop q with
    | Some (time, _) -> Alcotest.(check int) "pop order" i time
    | None -> Alcotest.fail "queue empty"
  in
  let check_collected lo hi =
    Gc.full_major ();
    for i = lo to hi do
      Alcotest.(check bool) (Printf.sprintf "payload %d collected" i) false
        (Weak.check w i)
    done
  in
  for i = 0 to 15 do add i done;
  for i = 0 to 7 do pop_expect i done;
  check_collected 0 7;
  for i = 16 to 23 do add i done;
  check_collected 0 7;
  for i = 24 to n - 1 do add i done;
  for i = 8 to n - 1 do pop_expect i done;
  check_collected 0 (n - 1);
  (* The queue itself stays live across the collection. *)
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_node_accounting () =
  let n = Node.create ~id:0 in
  Node.charge_local n 100;
  Node.charge_comm n 50;
  Node.wait_until n 200;
  Alcotest.(check int) "clock" 200 n.Node.clock;
  Alcotest.(check int) "local" 100 n.Node.local_ns;
  Alcotest.(check int) "comm" 50 n.Node.comm_ns;
  Alcotest.(check int) "idle" 50 n.Node.idle_ns;
  Node.wait_until n 100;
  Alcotest.(check int) "wait into past is a no-op" 200 n.Node.clock

let test_engine_runs_in_order () =
  let engine = Engine.create (Machine.t3d ~nodes:2) in
  let log = ref [] in
  Engine.post engine ~time:20 ~node:1 (fun () -> log := "b" :: !log);
  Engine.post engine ~time:10 ~node:0 (fun () -> log := "a" :: !log);
  Engine.run engine;
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "events" 2 (Engine.events_processed engine)

let test_engine_busy_node_serializes () =
  let engine = Engine.create (Machine.t3d ~nodes:1) in
  let times = ref [] in
  Engine.post engine ~time:0 ~node:0 (fun () ->
      Node.charge_local (Engine.node engine 0) 1000);
  (* Arrives at t=500 but the node is busy until t=1000. *)
  Engine.post engine ~time:500 ~node:0 (fun () ->
      times := (Engine.node engine 0).Node.clock :: !times);
  Engine.run engine;
  Alcotest.(check (list int)) "handled at 1000" [ 1000 ] !times;
  Alcotest.(check int) "no idle" 0 (Engine.node engine 0).Node.idle_ns

let test_engine_idle_gap () =
  let engine = Engine.create (Machine.t3d ~nodes:1) in
  Engine.post engine ~time:700 ~node:0 (fun () -> ());
  Engine.run engine;
  Alcotest.(check int) "idle accounted" 700 (Engine.node engine 0).Node.idle_ns

let test_engine_barrier () =
  let engine = Engine.create (Machine.t3d ~nodes:3) in
  Engine.post engine ~time:100 ~node:1 (fun () ->
      Node.charge_local (Engine.node engine 1) 400);
  Engine.run engine;
  Engine.barrier engine;
  Array.iter
    (fun n -> Alcotest.(check int) "clocks equal" 500 n.Node.clock)
    (Engine.nodes engine);
  Alcotest.(check int) "elapsed" 500 (Engine.elapsed engine)

(* A barrier over a non-empty queue names what is left: the pending and
   live counts (a background event is pending but not live) and the
   earliest event's time and node. *)
let test_engine_barrier_pending () =
  let engine = Engine.create (Machine.t3d ~nodes:3) in
  Engine.post engine ~time:900 ~node:0 (fun () -> ());
  Engine.post engine ~time:700 ~node:2 (fun () -> ());
  Engine.post engine ~kind:Engine.Background ~time:800 ~node:1 (fun () -> ());
  Alcotest.check_raises "names counts, time and node"
    (Invalid_argument
       "Engine.barrier: 3 events still pending (2 live), the earliest at \
        t=700 ns on node 2")
    (fun () -> Engine.barrier engine)

(* Random events of every kind over three nodes, some posted from inside
   actions; each action records its node's clock on entry and
   [live_events], then charges some local work so that later events can
   find their node busy past their time. A model replays the same events
   in (time, post order): a [Work] pop sets the clock to [max clock time],
   a [Soft] or [Background] pop leaves it where it was, and [live_events]
   is the number of pending events that are not [Background]. *)
type ev = {
  time : int;
  node : int;
  kind : Engine.kind;
  work : int;
  children : ev list;
}

let ev_gen =
  let open QCheck.Gen in
  let kind = oneofl [ Engine.Work; Engine.Soft; Engine.Background ] in
  sized_size (int_bound 2)
    (fix (fun self depth ->
         map
           (fun ((time, node, kind), (work, children)) ->
             { time; node; kind; work; children })
           (pair
              (triple (int_bound 2_000) (int_bound 2) kind)
              (pair
                 (oneof [ return 0; int_bound 500 ])
                 (if depth = 0 then return []
                  else list_size (int_bound 3) (self (depth - 1)))))))

let rec print_ev e =
  Printf.sprintf "{t=%d n=%d %s w=%d [%s]}" e.time e.node
    (match e.kind with
    | Engine.Work -> "work"
    | Engine.Soft -> "soft"
    | Engine.Background -> "bg")
    e.work
    (String.concat " " (List.map print_ev e.children))

let engine_kinds_match_model evs =
  let nnodes = 3 in
  let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
  let seen = ref [] in
  let rec post e =
    Engine.post engine ~kind:e.kind ~time:e.time ~node:e.node (fun () ->
        let n = Engine.node engine e.node in
        seen := (n.Node.clock, Engine.live_events engine) :: !seen;
        List.iter post e.children;
        Node.charge_local n e.work)
  in
  List.iter post evs;
  Engine.run engine;
  let clocks = Array.make nnodes 0 in
  let pending = ref Keys.empty and posted = Hashtbl.create 64 in
  let add e =
    let i = Hashtbl.length posted in
    Hashtbl.add posted i e;
    pending := Keys.add (e.time, i) !pending
  in
  List.iter add evs;
  let want = ref [] in
  while not (Keys.is_empty !pending) do
    let ((time, i) as key) = Keys.min_elt !pending in
    pending := Keys.remove key !pending;
    let e = Hashtbl.find posted i in
    (match e.kind with
    | Engine.Work -> clocks.(e.node) <- max clocks.(e.node) time
    | Engine.Soft | Engine.Background -> ());
    let live =
      Keys.fold
        (fun (_, j) n ->
          if (Hashtbl.find posted j).kind = Engine.Background then n else n + 1)
        !pending 0
    in
    want := (clocks.(e.node), live) :: !want;
    List.iter add e.children;
    clocks.(e.node) <- clocks.(e.node) + e.work
  done;
  !seen = !want

let qcheck_engine_kinds =
  QCheck.Test.make
    ~name:"event kinds move the node clock and the live count by their rules"
    ~count:300
    (QCheck.make
       ~print:(fun evs -> String.concat "\n" (List.map print_ev evs))
       QCheck.Gen.(list_size (int_range 1 20) ev_gen))
    engine_kinds_match_model

(* --- allocation ------------------------------------------------------------ *)

(* Minor words per operation of [f] in steady state: the difference
   between a run of [2n] and a run of [n] calls cancels what a run costs
   regardless of its length. *)
let minor_words_per_op n f =
  let run k =
    let w0 = Gc.minor_words () in
    for _ = 1 to k do f () done;
    Gc.minor_words () -. w0
  in
  ignore (run n);
  let w1 = run n in
  let w2 = run (2 * n) in
  (w2 -. w1) /. float_of_int n

(* One [add_tagged] plus the split pop ([min_*], [drop_min]) at a steady
   depth of 1024, with one prebuilt closure as every payload: the heap
   moves ints and the payload is written into a reused slot, so neither
   allocates. Measured: 0 words. *)
let test_event_queue_alloc () =
  let q = Event_queue.create () in
  let nop () = () in
  for i = 0 to 1023 do
    Event_queue.add_tagged q ~time:((i * 7919) land 0xffff) ~tag:i nop
  done;
  let t = ref 0x10000 in
  let per_op =
    minor_words_per_op 100_000 (fun () ->
        incr t;
        Event_queue.add_tagged q ~time:(!t + ((!t * 7919) land 0xffff)) ~tag:!t nop;
        ignore (Sys.opaque_identity (Event_queue.min_time q));
        ignore (Sys.opaque_identity (Event_queue.min_tag q));
        let f = Event_queue.min_payload q in
        Event_queue.drop_min q;
        f ())
  in
  if per_op > 0.01 then
    Alcotest.failf "%.3f minor words per add plus pop at depth 1024 (bound 0.01)"
      per_op

(* [Engine.post] then [Engine.run] of one prebuilt closure, 64 events a
   batch over two nodes: the event is a tag and a payload slot, and the
   dispatch loop reads them back without building an option or a tuple.
   Measured: 0 words per event. *)
let test_engine_dispatch_alloc () =
  let engine = Engine.create (Machine.t3d ~nodes:2) in
  let nop () = () in
  let time = ref 0 in
  let per_batch =
    minor_words_per_op 10_000 (fun () ->
        for k = 0 to 63 do
          Engine.post engine ~time:(!time + (k * 37 mod 64)) ~node:(k land 1) nop
        done;
        time := !time + 64;
        Engine.run engine)
  in
  let per_event = per_batch /. 64. in
  if per_event > 0.01 then
    Alcotest.failf "%.3f minor words per posted and dispatched event (bound 0.01)"
      per_event

let test_machine_transfer () =
  let m = Machine.make ~wire_latency_ns:1000 ~ns_per_byte:10. ~nodes:2 () in
  Alcotest.(check int) "latency+bytes" (1000 + 100) (Machine.transfer_ns m ~bytes:10)

let test_breakdown_fractions () =
  let nodes = [| Node.create ~id:0; Node.create ~id:1 |] in
  Node.charge_local nodes.(0) 300;
  Node.charge_comm nodes.(1) 100;
  Node.wait_until nodes.(1) 300;
  let b = Breakdown.of_nodes ~elapsed_ns:300 nodes in
  Alcotest.(check int) "local" 300 b.Breakdown.local_ns;
  Alcotest.(check int) "comm" 100 b.Breakdown.comm_ns;
  Alcotest.(check int) "idle" 200 b.Breakdown.idle_ns;
  Alcotest.(check (float 1e-9)) "fractions sum to 1" 1.0
    (Breakdown.local_frac b +. Breakdown.comm_frac b +. Breakdown.idle_frac b)

let suites =
  [
    ( "sim.event_queue",
      [
        Alcotest.test_case "ordering" `Quick test_event_queue_order;
        Alcotest.test_case "fifo ties" `Quick test_event_queue_fifo_ties;
        QCheck_alcotest.to_alcotest qcheck_event_queue_sorted;
        QCheck_alcotest.to_alcotest qcheck_event_queue_model;
        QCheck_alcotest.to_alcotest qcheck_event_queue_model_deep;
        Alcotest.test_case "releases popped payloads" `Quick
          test_event_queue_releases_popped;
      ] );
    ( "sim.node",
      [ Alcotest.test_case "accounting" `Quick test_node_accounting ] );
    ( "sim.engine",
      [
        Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
        Alcotest.test_case "busy node serializes" `Quick
          test_engine_busy_node_serializes;
        Alcotest.test_case "idle gap" `Quick test_engine_idle_gap;
        Alcotest.test_case "barrier" `Quick test_engine_barrier;
        Alcotest.test_case "barrier names pending events" `Quick
          test_engine_barrier_pending;
        QCheck_alcotest.to_alcotest qcheck_engine_kinds;
      ] );
    ( "sim.alloc",
      [
        Alcotest.test_case "event queue add and split pop" `Quick
          test_event_queue_alloc;
        Alcotest.test_case "engine post and dispatch" `Quick
          test_engine_dispatch_alloc;
      ] );
    ( "sim.machine",
      [ Alcotest.test_case "transfer time" `Quick test_machine_transfer ] );
    ( "sim.breakdown",
      [ Alcotest.test_case "fractions" `Quick test_breakdown_fractions ] );
  ]
