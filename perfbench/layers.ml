(* The layer tier: one Bechamel test per layer of docs/ARCHITECTURE.md §1,
   each timing that layer's hot operation in isolation. Results are host
   nanoseconds (and minor-heap words) per operation; where one operation
   is too short to time, a test runs a batch and divides. *)

open Bechamel
open Toolkit
open Dpa_sim

type case = { metric : string; ops : int; test : Test.t }

let case metric ops f = { metric; ops; test = Test.make ~name:metric (Staged.stage f) }

(* Steady depth 1024: every add is matched by a pop. *)
let event_queue () =
  let q = Event_queue.create () in
  for i = 0 to 1023 do
    Event_queue.add q ~time:((i * 7919) land 0xffff) i
  done;
  let t = ref 0x10000 in
  fun () ->
    incr t;
    Event_queue.add q ~time:(!t + ((!t * 7919) land 0xffff)) !t;
    ignore (Sys.opaque_identity (Event_queue.pop q))

let engine_dispatch () =
  let e = Engine.create (Machine.t3d ~nodes:2) in
  let nop () = () in
  fun () ->
    for k = 0 to 63 do
      Engine.post e ~time:0 ~node:(k land 1) nop
    done;
    Engine.run e

(* One send delivered end to end; with a fault plan the reliable protocol
   adds the envelope, the NIC ack and the dedup entry. *)
let am_send faults =
  let e = Engine.create (Machine.make ~nodes:2 ?faults ()) in
  let src = Engine.node e 0 in
  let handler _ = () in
  fun () ->
    Dpa_msg.Am.send e ~src ~dst:1 ~bytes:64 handler;
    Engine.run e;
    ignore (Dpa_msg.Am.prune_seen e)

let wire () =
  let f = Dpa_msg.Wire.frame ~src:0 ~dst:1 ~seq:1 ~inc:0 ~bytes:256 in
  fun () ->
    Dpa_msg.Wire.seal f;
    if not (Dpa_msg.Wire.verify f) then failwith "Wire.verify rejected a sealed frame"

let aggregator () =
  let agg =
    Dpa_msg.Aggregator.create ~ndest:16 ~max_batch:64 ~flush:(fun ~dst:_ _ -> ())
  in
  fun () ->
    for k = 0 to 63 do
      Dpa_msg.Aggregator.add agg ~dst:(k land 15) k
    done

(* 128 slots per destination, so adds mix fresh entries, combines and
   batch flushes. *)
let update_buffer () =
  let b =
    Dpa.Update_buffer.create ~ndest:16 ~combine:true ~max_batch:64
      ~flush:(fun ~dst:_ _ -> ())
      ()
  in
  let i = ref 0 in
  fun () ->
    for k = 0 to 63 do
      incr i;
      Dpa.Update_buffer.add b ~dst:(k land 15)
        (Dpa_heap.Gptr.make ~node:(k land 15) ~slot:((!i * 7) land 127))
        ~idx:0 1.0
    done

let wal_records = Array.init 256 (fun k -> Bytes.make 32 (Char.chr k))

let wal_append () =
  let w = Dpa.Wal.create () in
  let recs = Array.sub wal_records 0 64 in
  fun () ->
    Array.iter (Dpa.Wal.append w) recs;
    Dpa.Wal.reset w

let wal_scan () =
  let w = Dpa.Wal.create () in
  Array.iter (Dpa.Wal.append w) wal_records;
  fun () -> ignore (Sys.opaque_identity (Dpa.Wal.scan w))

let heap_view () =
  let heaps = Dpa_heap.Heap.cluster ~nnodes:2 in
  let ptrs =
    Array.init 64 (fun k ->
        Dpa_heap.Heap.alloc heaps.(k land 1)
          ~floats:(Array.init 8 float_of_int)
          ~ptrs:[||])
  in
  fun () ->
    let s = ref 0. in
    Array.iteri
      (fun k p -> s := !s +. Dpa_heap.Heap.view_float heaps p (k land 7))
      ptrs;
    ignore (Sys.opaque_identity !s)

(* Eight whole traversals of a 4096-body tree; [ops] is their interaction
   count, so the result is host ns per body-cell or body-body
   interaction. *)
let bh_kernel () =
  let p = Dpa_bh.Bh_force.default_params in
  let theta = p.Dpa_bh.Bh_force.theta and eps = p.Dpa_bh.Bh_force.eps in
  let bodies = Dpa_bh.Plummer.generate ~n:4096 ~seed:1 in
  let octree = Dpa_bh.Octree.build bodies in
  let sample = Array.init 8 (fun k -> bodies.(k * 512)) in
  let work =
    Dpa_bh.Bh_seq.per_body_work ~theta ~visit_w:0 ~body_cell_w:1 ~body_body_w:1
      octree
  in
  let ops =
    Array.fold_left (fun a (b : Dpa_bh.Body.t) -> a + work.(b.Dpa_bh.Body.id)) 0 sample
  in
  ( ops,
    fun () ->
      Array.iter
        (fun b ->
          ignore (Sys.opaque_identity (Dpa_bh.Bh_seq.force_on ~theta ~eps octree b)))
        sample )

module Lru = Dpa_util.Lru.Make (Dpa_heap.Gptr.Tbl)

(* Find-or-insert over twice the capacity in keys: hits and evictions. *)
let lru () =
  let c = Lru.create ~capacity:1024 in
  let i = ref 0 in
  fun () ->
    for _ = 1 to 64 do
      incr i;
      let p = Dpa_heap.Gptr.make ~node:0 ~slot:((!i * 7919) land 2047) in
      match Lru.find c p with Some _ -> () | None -> Lru.add c p !i
    done

let sink_instant () =
  let s = Dpa_obs.Sink.create ~capacity:4096 () in
  let i = ref 0 in
  fun () ->
    for _ = 1 to 64 do
      incr i;
      Dpa_obs.Sink.instant s ~cat:"bench" ~name:"tick" ~node:0 ~ts:!i
    done

let cases () =
  let bh_ops, bh = bh_kernel () in
  [
    case "event_queue.add_pop_ns" 1 (event_queue ());
    case "engine.dispatch_ns" 64 (engine_dispatch ());
    case "am.send_ns_off" 1 (am_send None);
    case "am.send_ns_faults" 1 (am_send (Some Fault.none));
    case "wire.seal_verify_ns" 1 (wire ());
    case "aggregator.add_ns" 64 (aggregator ());
    case "update_buffer.add_ns" 64 (update_buffer ());
    case "wal.append_ns" 64 (wal_append ());
    case "wal.scan_ns_per_record" 256 (wal_scan ());
    case "heap.view_float_ns" 64 (heap_view ());
    case "bh_kernel.ns_per_interaction" bh_ops bh;
    case "caching.lru_op_ns" 64 (lru ());
    case "sink.instant_ns" 64 (sink_instant ());
  ]

let estimate ols instance raw =
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun _ r acc ->
      match Analyze.OLS.estimates r with Some [ x ] -> x | _ -> acc)
    results Float.nan

(* Per-operation host ns for every case, plus the event queue's minor-heap
   words per add+pop. [quota] is the Bechamel time budget per case. *)
let run ~quota =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false
      ~kde:None ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  List.concat_map
    (fun c ->
      let raw =
        Benchmark.all cfg Instance.[ monotonic_clock; minor_allocated ] c.test
      in
      let per x = Float.max 0. x /. float_of_int c.ops in
      let ns = (c.metric, per (estimate ols Instance.monotonic_clock raw)) in
      if c.metric = "event_queue.add_pop_ns" then
        [ ns; ("event_queue.words_per_event", per (estimate ols Instance.minor_allocated raw)) ]
      else [ ns ])
    (cases ())
