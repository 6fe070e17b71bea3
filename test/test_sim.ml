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

(* Interleaved adds and pops against a list kept sorted by (time,
   insertion): payloads and tags must come back with their keys, through
   both the allocation-free accessors and [pop]. *)
let qcheck_event_queue_model =
  QCheck.Test.make
    ~name:"event queue matches a (time, insertion) sorted model under interleaved add/pop"
    ~count:300
    QCheck.(list (option (int_range 0 20)))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] and n = ref 0 in
      let insert key =
        let rec go = function
          | [] -> [ key ]
          | k :: rest as l -> if compare key k < 0 then key :: l else k :: go rest
        in
        model := go !model
      in
      List.for_all
        (function
          | Some time ->
            let i = !n in
            incr n;
            Event_queue.add_tagged q ~time ~tag:(3 * i) (string_of_int i);
            insert (time, i);
            Event_queue.length q = List.length !model
          | None -> (
            match !model with
            | [] -> Event_queue.is_empty q && Event_queue.pop q = None
            | (time, i) :: rest ->
              model := rest;
              Event_queue.peek_time q = Some time
              && Event_queue.min_time q = time
              && Event_queue.min_tag q = 3 * i
              && Event_queue.min_payload q = string_of_int i
              && Event_queue.pop q = Some (time, string_of_int i)))
        ops)

(* A popped payload must not stay reachable from the queue: neither from
   the vacated root slot nor from spare capacity filled when it grew. *)
let test_event_queue_releases_popped () =
  let q = Event_queue.create () in
  let w = Weak.create 3 in
  let fill () =
    for i = 0 to 2 do
      let payload = Bytes.make 16 (Char.chr (65 + i)) in
      Weak.set w i (Some payload);
      Event_queue.add q ~time:i payload
    done
  in
  fill ();
  for _ = 0 to 2 do
    ignore (Sys.opaque_identity (Event_queue.pop q))
  done;
  Gc.full_major ();
  for i = 0 to 2 do
    Alcotest.(check bool) (Printf.sprintf "payload %d collected" i) false
      (Weak.check w i)
  done;
  (* The queue itself stays live across the collection. *)
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_node_accounting () =
  let machine = Machine.t3d ~nodes:1 in
  let n = Node.create ~machine ~id:0 in
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

let test_machine_transfer () =
  let m = Machine.make ~wire_latency_ns:1000 ~ns_per_byte:10. ~nodes:2 () in
  Alcotest.(check int) "latency+bytes" (1000 + 100) (Machine.transfer_ns m ~bytes:10)

let test_breakdown_fractions () =
  let machine = Machine.t3d ~nodes:2 in
  let nodes = [| Node.create ~machine ~id:0; Node.create ~machine ~id:1 |] in
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
      ] );
    ( "sim.machine",
      [ Alcotest.test_case "transfer time" `Quick test_machine_transfer ] );
    ( "sim.breakdown",
      [ Alcotest.test_case "fractions" `Quick test_breakdown_fractions ] );
  ]
