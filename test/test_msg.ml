open Dpa_sim

let machine =
  Machine.make ~send_overhead_ns:1000 ~recv_overhead_ns:1000
    ~wire_latency_ns:1000 ~ns_per_byte:10. ~nodes:4 ()

let test_am_delivery_time () =
  let engine = Engine.create machine in
  let src = Engine.node engine 0 in
  let arrived = ref (-1) in
  Dpa_msg.Am.send engine ~src ~dst:1 ~bytes:100 (fun d ->
      arrived := d.Node.clock);
  Engine.run engine;
  (* send overhead 1000 -> injection at 1000; transfer = 1000 + 100*10 = 2000;
     arrival 3000; recv overhead 1000 -> handler sees clock 4000. *)
  Alcotest.(check int) "handler clock" 4000 !arrived;
  Alcotest.(check int) "src comm" 1000 src.Node.comm_ns;
  Alcotest.(check int) "src msgs" 1 src.Node.msgs_sent;
  Alcotest.(check int) "dst msgs" 1 (Engine.node engine 1).Node.msgs_recv

let test_am_rejects_small () =
  let engine = Engine.create machine in
  Alcotest.check_raises "too small"
    (Invalid_argument
       (Printf.sprintf
          "Am.send: message from node 0 to node 1 is 2 bytes, smaller than \
           the %d-byte header"
          machine.Machine.msg_header_bytes)) (fun () ->
      Dpa_msg.Am.send engine ~src:(Engine.node engine 0) ~dst:1 ~bytes:2
        (fun _ -> ()))

let test_message_sizes () =
  Alcotest.(check int) "request"
    (machine.Machine.msg_header_bytes + (3 * machine.Machine.req_entry_bytes))
    (Dpa_msg.Am.request_bytes machine ~nreqs:3);
  Alcotest.(check bool) "reply bigger than payload" true
    (Dpa_msg.Am.reply_bytes machine ~payload:100 ~nreqs:2 > 100)

(* A flushed batch as a list: the view is only valid inside the callback. *)
let batch_list b =
  List.init (Dpa_msg.Aggregator.batch_length b) (Dpa_msg.Aggregator.batch_get b)

let test_aggregator_batches () =
  let flushed = ref [] in
  let agg =
    Dpa_msg.Aggregator.create ~ndest:3 ~max_batch:2 ~flush:(fun ~dst b ->
        flushed := (dst, batch_list b) :: !flushed)
  in
  Dpa_msg.Aggregator.add agg ~dst:1 10;
  Alcotest.(check int) "buffered" 1 (Dpa_msg.Aggregator.pending agg);
  Dpa_msg.Aggregator.add agg ~dst:1 11 (* hits max_batch -> eager flush *);
  Alcotest.(check int) "drained" 0 (Dpa_msg.Aggregator.pending agg);
  Dpa_msg.Aggregator.add agg ~dst:2 12;
  Dpa_msg.Aggregator.flush_all agg;
  Alcotest.(check (list (pair int (list int))))
    "batches in order"
    [ (1, [ 10; 11 ]); (2, [ 12 ]) ]
    (List.rev !flushed);
  Alcotest.(check int) "flushes" 2 (Dpa_msg.Aggregator.flushes agg);
  Alcotest.(check int) "max batch" 2 (Dpa_msg.Aggregator.max_batch_seen agg)

let test_aggregator_pending_for () =
  let agg =
    Dpa_msg.Aggregator.create ~ndest:3 ~max_batch:10 ~flush:(fun ~dst:_ _ -> ())
  in
  Dpa_msg.Aggregator.add agg ~dst:1 10;
  Dpa_msg.Aggregator.add agg ~dst:1 11;
  Dpa_msg.Aggregator.add agg ~dst:2 12;
  Alcotest.(check int) "dst 0" 0 (Dpa_msg.Aggregator.pending_for agg ~dst:0);
  Alcotest.(check int) "dst 1" 2 (Dpa_msg.Aggregator.pending_for agg ~dst:1);
  Alcotest.(check int) "dst 2" 1 (Dpa_msg.Aggregator.pending_for agg ~dst:2);
  Alcotest.(check int) "sums to pending"
    (Dpa_msg.Aggregator.pending agg)
    (Dpa_msg.Aggregator.pending_for agg ~dst:0
    + Dpa_msg.Aggregator.pending_for agg ~dst:1
    + Dpa_msg.Aggregator.pending_for agg ~dst:2);
  Dpa_msg.Aggregator.flush_all agg;
  Alcotest.(check int) "drained" 0 (Dpa_msg.Aggregator.pending_for agg ~dst:1);
  Alcotest.check_raises "bad destination"
    (Invalid_argument "Aggregator.pending_for: bad destination") (fun () ->
      ignore (Dpa_msg.Aggregator.pending_for agg ~dst:3))

(* A crash discards unsent entries: [clear] reports them, nothing of them
   is ever flushed, and the buffers keep working afterwards. *)
let test_aggregator_clear () =
  let flushed = ref [] in
  let agg =
    Dpa_msg.Aggregator.create ~ndest:2 ~max_batch:4 ~flush:(fun ~dst b ->
        flushed := (dst, batch_list b) :: !flushed)
  in
  List.iter (fun x -> Dpa_msg.Aggregator.add agg ~dst:(x land 1) x) [ 1; 2; 3 ];
  Alcotest.(check int) "dropped" 3 (Dpa_msg.Aggregator.clear agg);
  Alcotest.(check int) "pending" 0 (Dpa_msg.Aggregator.pending agg);
  Alcotest.(check int) "pending_for" 0 (Dpa_msg.Aggregator.pending_for agg ~dst:1);
  Dpa_msg.Aggregator.flush_all agg;
  Alcotest.(check int) "nothing flushed" 0 (List.length !flushed);
  Dpa_msg.Aggregator.add agg ~dst:1 7;
  Dpa_msg.Aggregator.flush_all agg;
  Alcotest.(check (list (pair int (list int)))) "fresh batch" [ (1, [ 7 ]) ] !flushed;
  Alcotest.(check int) "flushes" 1 (Dpa_msg.Aggregator.flushes agg)

(* A buffer grows past its first capacity without reordering; the batch
   view dies with its callback, and the callback may not re-enter. *)
let test_aggregator_batch_view () =
  let kept = ref None and seen = ref [] in
  let agg =
    Dpa_msg.Aggregator.create ~ndest:1 ~max_batch:100 ~flush:(fun ~dst:_ b ->
        kept := Some b;
        seen := batch_list b)
  in
  for x = 0 to 99 do
    Dpa_msg.Aggregator.add agg ~dst:0 x
  done;
  Alcotest.(check (list int)) "FIFO across growth" (List.init 100 Fun.id) !seen;
  (match !kept with
  | None -> Alcotest.fail "no flush"
  | Some b ->
    Alcotest.(check int) "empty after the callback" 0
      (Dpa_msg.Aggregator.batch_length b);
    Alcotest.check_raises "stale read"
      (Invalid_argument "Aggregator.batch_get: index out of range") (fun () ->
        ignore (Dpa_msg.Aggregator.batch_get b 0)));
  let self = ref None in
  let agg =
    Dpa_msg.Aggregator.create ~ndest:2 ~max_batch:1 ~flush:(fun ~dst:_ _ ->
        Option.iter (fun a -> Dpa_msg.Aggregator.add a ~dst:1 0) !self)
  in
  self := Some agg;
  Alcotest.check_raises "re-entrant add"
    (Invalid_argument "Aggregator.add: called from inside a flush callback")
    (fun () -> Dpa_msg.Aggregator.add agg ~dst:0 0);
  self := None;
  Dpa_msg.Aggregator.add agg ~dst:1 5;
  Alcotest.(check int) "usable after the raise" 2
    (Dpa_msg.Aggregator.flushes agg)

(* Model-based property: drive the aggregator with a random interleaving of
   [add] and [flush_all], and mirror it with an obviously-correct model of
   per-destination FIFOs. Flush count, largest batch, per-destination
   pending counts and the order of everything flushed must all agree with
   the model. *)
let qcheck_aggregator_model =
  let ndest = 3 in
  let op =
    QCheck.(
      map
        (fun (kind, dst, x) ->
          match kind mod 10 with 0 | 5 -> `Flush_all | _ -> `Add (dst, x))
        (triple small_nat (int_range 0 (ndest - 1)) small_nat))
  in
  QCheck.Test.make
    ~name:"aggregator flushes/max_batch_seen/pending_for match a model"
    ~count:300
    QCheck.(pair (int_range 1 6) (small_list op))
    (fun (max_batch, ops) ->
      let out = ref [] in
      let agg =
        Dpa_msg.Aggregator.create ~ndest ~max_batch ~flush:(fun ~dst b ->
            out := (dst, batch_list b) :: !out)
      in
      (* The model: per-destination FIFOs plus the expected flush log. *)
      let model = Array.make ndest [] in
      let model_out = ref [] and model_flushes = ref 0 and model_maxb = ref 0 in
      let model_flush dst =
        if model.(dst) <> [] then begin
          let batch = List.rev model.(dst) in
          model_out := (dst, batch) :: !model_out;
          incr model_flushes;
          model_maxb := max !model_maxb (List.length batch);
          model.(dst) <- []
        end
      in
      let model_add dst x =
        model.(dst) <- x :: model.(dst);
        if List.length model.(dst) = max_batch then model_flush dst
      in
      List.iter
        (function
          | `Add (dst, x) ->
            Dpa_msg.Aggregator.add agg ~dst x;
            model_add dst x
          | `Flush_all ->
            Dpa_msg.Aggregator.flush_all agg;
            for dst = 0 to ndest - 1 do
              model_flush dst
            done)
        ops;
      List.rev !out = List.rev !model_out
      && Dpa_msg.Aggregator.flushes agg = !model_flushes
      && Dpa_msg.Aggregator.max_batch_seen agg = !model_maxb
      && List.for_all
           (fun dst ->
             Dpa_msg.Aggregator.pending_for agg ~dst
             = List.length model.(dst))
           [ 0; 1; 2 ])

let qcheck_aggregator_no_loss =
  QCheck.Test.make
    ~name:"aggregator neither drops nor duplicates nor reorders" ~count:300
    QCheck.(pair (int_range 1 10) (small_list (pair (int_range 0 4) small_nat)))
    (fun (max_batch, adds) ->
      let out = Array.make 5 [] in
      let agg =
        Dpa_msg.Aggregator.create ~ndest:5 ~max_batch ~flush:(fun ~dst b ->
            out.(dst) <- out.(dst) @ batch_list b)
      in
      List.iter (fun (dst, x) -> Dpa_msg.Aggregator.add agg ~dst x) adds;
      Dpa_msg.Aggregator.flush_all agg;
      Dpa_msg.Aggregator.pending agg = 0
      && List.for_all
           (fun dst ->
             out.(dst)
             = List.filter_map
                 (fun (d, x) -> if d = dst then Some x else None)
                 adds)
           [ 0; 1; 2; 3; 4 ])

let qcheck_aggregator_batch_bound =
  QCheck.Test.make ~name:"aggregator batches never exceed max_batch" ~count:200
    QCheck.(pair (int_range 1 7) (small_list (int_range 0 2)))
    (fun (max_batch, dsts) ->
      let ok = ref true in
      let agg =
        Dpa_msg.Aggregator.create ~ndest:3 ~max_batch ~flush:(fun ~dst:_ b ->
            if Dpa_msg.Aggregator.batch_length b > max_batch then ok := false)
      in
      List.iter (fun dst -> Dpa_msg.Aggregator.add agg ~dst dst) dsts;
      Dpa_msg.Aggregator.flush_all agg;
      !ok)

(* --- reduction-tree routing -------------------------------------------- *)

let test_route_shape () =
  (* Tree rooted at 0 over 8 nodes: rank = node id, parent clears the
     lowest set bit. *)
  let hop src = Dpa_msg.Route.next_hop ~nnodes:8 ~src ~dst:0 in
  Alcotest.(check int) "1 -> 0" 0 (hop 1);
  Alcotest.(check int) "2 -> 0" 0 (hop 2);
  Alcotest.(check int) "3 -> 2" 2 (hop 3);
  Alcotest.(check int) "5 -> 4" 4 (hop 5);
  Alcotest.(check int) "6 -> 4" 4 (hop 6);
  Alcotest.(check int) "7 -> 6" 6 (hop 7);
  (* Rotated root: the shape is translation-invariant. *)
  Alcotest.(check int) "root 3: 4 -> 3" 3
    (Dpa_msg.Route.next_hop ~nnodes:8 ~src:4 ~dst:3);
  Alcotest.check_raises "src = dst has no parent"
    (Invalid_argument "Route.next_hop: src is the destination") (fun () ->
      ignore (Dpa_msg.Route.next_hop ~nnodes:8 ~src:3 ~dst:3))

let qcheck_route_converges =
  QCheck.Test.make
    ~name:"route: every path reaches the root within ceil(log2 n) hops"
    ~count:500
    QCheck.(
      triple (int_range 1 65) (int_range 0 1000) (int_range 0 1000))
    (fun (nnodes, s, d) ->
      let src = s mod nnodes and dst = d mod nnodes in
      let log2ceil =
        let k = ref 0 in
        while 1 lsl !k < nnodes do
          incr k
        done;
        !k
      in
      let rec walk node steps =
        if node = dst then steps
        else walk (Dpa_msg.Route.next_hop ~nnodes ~src:node ~dst) (steps + 1)
      in
      let steps = if src = dst then 0 else walk src 0 in
      steps <= log2ceil
      && steps = Dpa_msg.Route.hops ~nnodes ~src ~dst
      (* Ranks strictly decrease toward the root, so routing can never
         cycle. *)
      && (src = dst
         || Dpa_msg.Route.rank ~nnodes
              ~src:(Dpa_msg.Route.next_hop ~nnodes ~src ~dst)
              ~dst
            < Dpa_msg.Route.rank ~nnodes ~src ~dst))

let test_am_ingress_serialization () =
  (* Two 1000-byte messages sent back-to-back to the same destination: with
     serialized links the second arrives a full serialization time after
     the first; contention-free they overlap. *)
  let arrivals serialized =
    let m =
      Machine.make ~send_overhead_ns:0 ~recv_overhead_ns:0
        ~wire_latency_ns:1000 ~ns_per_byte:10. ~ingress_serialized:serialized
        ~nodes:3 ()
    in
    let engine = Engine.create m in
    let out = ref [] in
    (* Distinct senders so sender-side egress doesn't serialize them. *)
    Dpa_msg.Am.send engine ~src:(Engine.node engine 0) ~dst:2 ~bytes:1000
      (fun d -> out := d.Node.clock :: !out);
    Dpa_msg.Am.send engine ~src:(Engine.node engine 1) ~dst:2 ~bytes:1000
      (fun d -> out := d.Node.clock :: !out);
    Engine.run engine;
    List.sort compare !out
  in
  (match arrivals false with
  | [ a; b ] ->
    Alcotest.(check int) "contention-free: together" a b;
    Alcotest.(check int) "at latency+transfer" 11000 a
  | _ -> Alcotest.fail "expected two arrivals");
  match arrivals true with
  | [ a; b ] ->
    Alcotest.(check int) "first at egress+wire+ingress" 21000 a;
    Alcotest.(check int) "second queued behind first" 31000 b
  | _ -> Alcotest.fail "expected two arrivals"

(* --- allocation ------------------------------------------------------------ *)

(* A late copy: with no drops or delays every first copy is acknowledged
   inside its timeout, while a duplicate trails its original by up to 50
   timeouts, so most duplicates land after their envelope's last timeout
   has popped and its slot would, without them, be free for the next
   send. Each must still find its own envelope there: every message runs
   exactly once, the duplicates are suppressed, and no slot is held once
   the engine drains. *)
let test_late_copy_after_envelope () =
  let bytes = machine.Machine.msg_header_bytes + 16 in
  let rto = Dpa_msg.Am.initial_rto machine ~bytes in
  let faults = { Fault.none with Fault.dup = 0.5; jitter_ns = 50 * rto } in
  let engine =
    Engine.create
      { machine with Machine.nodes = 2; faults = Some faults; fault_seed = 7 }
  in
  let n0 = Engine.node engine 0 in
  let n = 400 in
  let runs = Array.make n 0 in
  let handler _ k _ _ = runs.(k) <- runs.(k) + 1 in
  let rec tick k () =
    if k < n then begin
      Dpa_msg.Am.send_data engine ~src:n0 ~dst:1 ~bytes handler k 0 [||];
      Engine.post engine ~time:(n0.Node.clock + (rto / 4)) ~node:0
        (tick (k + 1))
    end
  in
  Engine.post engine ~time:0 ~node:0 (tick 0);
  Engine.run engine;
  Alcotest.(check (array int)) "every message ran once" (Array.make n 1) runs;
  let s = Option.get (Dpa_msg.Am.stats engine) in
  Alcotest.(check bool) "duplicates suppressed" true
    (s.Dpa_msg.Am.dups_suppressed > 0);
  Alcotest.(check int) "no envelope slot held" 0 s.Dpa_msg.Am.seen_entries;
  Alcotest.(check int) "every envelope freed" n s.Dpa_msg.Am.pruned

(* Node 0 streams [n] data messages round-robin to the other three nodes
   under drops, duplicates, delays and corruption, one every 2 µs of its
   clock, from one preallocated action, with one handler and one payload
   built up front. [batch n] runs one such stream on the same engine and
   returns the words [count] saw it allocate. *)
let faulted_stream count =
  let faults =
    { Fault.none with Fault.drop = 0.1; dup = 0.05; delay = 0.1; corrupt = 0.05 }
  in
  let engine =
    Engine.create { machine with Machine.faults = Some faults; fault_seed = 3 }
  in
  let n0 = Engine.node engine 0 in
  let bytes = machine.Machine.msg_header_bytes + 16 in
  let delivered = Array.make 1 0 in
  let handler _ _ _ _ = delivered.(0) <- delivered.(0) + 1 in
  let payload = [| 1; 2 |] in
  let batch n =
    delivered.(0) <- 0;
    let sent = Array.make 1 0 in
    let rec tick () =
      if sent.(0) < n then begin
        let k = sent.(0) in
        sent.(0) <- k + 1;
        Dpa_msg.Am.send_data engine ~src:n0 ~dst:(1 + (k mod 3)) ~bytes handler k
          0 payload;
        Engine.post engine ~time:(n0.Node.clock + 2_000) ~node:0 tick
      end
    in
    let w0 = count () in
    Engine.post engine ~time:n0.Node.clock ~node:0 tick;
    Engine.run engine;
    let words = count () -. w0 in
    Alcotest.(check int) "every message delivered once" n delivered.(0);
    words
  in
  (engine, batch)

(* Minor words per reliable envelope on the stream above. Each batch runs
   on the same engine after a warm-up batch at least as large, so the slab
   is already at its working size; the difference between two batch sizes
   cancels what a batch costs regardless of its size. The envelope, its
   copies, its acks and its timeouts are slab data and the frames are
   built in one scratch buffer; what is left is a corrupted copy's [Some]
   from the plan. Before the transport kept them as data, an envelope here
   cost 384.5 words; now it costs 0.3. *)
let test_reliable_envelope_alloc () =
  let _, batch = faulted_stream Gc.minor_words in
  ignore (batch 4_000);
  let w1 = batch 1_000 in
  let w2 = batch 3_000 in
  let per_envelope = (w2 -. w1) /. 2_000. in
  if per_envelope > 10. then
    Alcotest.failf "%.2f minor words per reliable envelope (bound 10)"
      per_envelope

(* Dedup state does not outlive its envelopes: five batches of the stream
   above on one engine, nothing called between them, and the last four
   cost minor plus direct-major words per envelope as in [core.alloc].
   With a per-receiver set of delivered sequence numbers, growing until a
   barrier pruned it, these batches cost 9.49 words per envelope; with
   the flag on the envelope they cost 0.27. *)
let test_dedup_state_flat () =
  let engine, batch = faulted_stream Test_runtime.allocated_words in
  ignore (batch 4_000);
  let words = ref 0. in
  for _ = 1 to 4 do
    words := !words +. batch 4_000
  done;
  let per_envelope = !words /. 16_000. in
  (match Dpa_msg.Am.stats engine with
  | Some s ->
    Alcotest.(check int) "no envelope slot held" 0 s.Dpa_msg.Am.seen_entries
  | None -> Alcotest.fail "expected protocol state under faults");
  if per_envelope > 2. then
    Alcotest.failf "%.2f words per reliable envelope across batches (bound 2)"
      per_envelope

let suites =
  [
    ( "msg.am",
      [
        Alcotest.test_case "delivery time" `Quick test_am_delivery_time;
        Alcotest.test_case "rejects small" `Quick test_am_rejects_small;
        Alcotest.test_case "message sizes" `Quick test_message_sizes;
        Alcotest.test_case "ingress serialization" `Quick
          test_am_ingress_serialization;
        Alcotest.test_case "a copy lands after its envelope's last timeout"
          `Quick test_late_copy_after_envelope;
      ] );
    ( "msg.alloc",
      [
        Alcotest.test_case "reliable envelope" `Quick
          test_reliable_envelope_alloc;
        Alcotest.test_case "dedup state does not grow across phases" `Quick
          test_dedup_state_flat;
      ] );
    ( "msg.aggregator",
      [
        Alcotest.test_case "batches" `Quick test_aggregator_batches;
        Alcotest.test_case "pending_for" `Quick test_aggregator_pending_for;
        Alcotest.test_case "clear" `Quick test_aggregator_clear;
        Alcotest.test_case "batch view" `Quick test_aggregator_batch_view;
        QCheck_alcotest.to_alcotest qcheck_aggregator_model;
        QCheck_alcotest.to_alcotest qcheck_aggregator_no_loss;
        QCheck_alcotest.to_alcotest qcheck_aggregator_batch_bound;
      ] );
    ( "msg.route",
      [
        Alcotest.test_case "binomial shape" `Quick test_route_shape;
        QCheck_alcotest.to_alcotest qcheck_route_converges;
      ] );
  ]
