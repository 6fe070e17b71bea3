(* End-to-end integrity: the corruption and torn-write fault classes and
   their defenses. The checksum fence must reject every single-bit wire
   error, the doublewrite WAL must recover losslessly from a tear at any
   byte of the tail record, and whole phases under corruption and torn
   crashes must still compute bit-identical fault-free results. *)

open Dpa_sim

(* --- wire frames: checksum avalanche ------------------------------------- *)

let test_frame_seal_verify () =
  let fr = Dpa_msg.Wire.frame ~src:1 ~dst:2 ~seq:77 ~inc:3 ~bytes:4096 in
  Alcotest.(check bool) "unsealed frame rejected" false (Dpa_msg.Wire.verify fr);
  Dpa_msg.Wire.seal fr;
  Alcotest.(check bool) "sealed frame verifies" true (Dpa_msg.Wire.verify fr)

let test_frame_avalanche () =
  (* CRC-32 detects every single-bit error, so there must be no bit in
     the frame — header, payload image or checksum trailer itself — whose
     flip survives verification. Exhaustive over all positions. *)
  let fr = Dpa_msg.Wire.frame ~src:5 ~dst:0 ~seq:123_456 ~inc:2 ~bytes:65_536 in
  Dpa_msg.Wire.seal fr;
  let len = Bytes.length fr in
  let bits = 8 * len in
  Alcotest.(check bool) "frame has bits" true (bits > 0);
  for k = 0 to bits - 1 do
    Dpa_msg.Wire.flip_bit_prefix fr ~len k;
    if Dpa_msg.Wire.verify fr then
      Alcotest.failf "single-bit flip at bit %d of %d accepted" k bits;
    Dpa_msg.Wire.flip_bit_prefix fr ~len k
  done;
  Alcotest.(check bool) "restored frame verifies again" true
    (Dpa_msg.Wire.verify fr)

let frame_gen =
  QCheck.Gen.(
    let* src = int_range 0 63 in
    let* dst = int_range 0 63 in
    let* seq = int_range 0 1_000_000 in
    let* inc = int_range 0 9 in
    let* bytes = int_range 1 1_000_000 in
    let* bit = int_range 0 10_000 in
    return (src, dst, seq, inc, bytes, bit))

(* The transport frames into one reused buffer: there the frame must be
   the same bytes, whatever the buffer held before, and be sealed, flipped
   and rejected the same way. A sealed frame with no flip must verify on
   both paths: the transport relies on that to judge a copy the plan did
   not corrupt clean without framing it. *)
let scratch = Bytes.make Dpa_msg.Wire.max_frame_len '\xA5'

let qcheck_frame_rejects_any_flip =
  QCheck.Test.make
    ~name:
      "any single-bit flip fails frame verification, and no flip passes"
    ~count:300 (QCheck.make frame_gen) (fun (src, dst, seq, inc, bytes, bit) ->
      let fr = Dpa_msg.Wire.frame ~src ~dst ~seq ~inc ~bytes in
      let len = Dpa_msg.Wire.frame_into scratch ~src ~dst ~seq ~inc ~bytes in
      let same = Bytes.sub scratch 0 len = fr in
      Dpa_msg.Wire.seal fr;
      Dpa_msg.Wire.seal_prefix scratch ~len;
      let clean_verifies =
        Dpa_msg.Wire.verify fr && Dpa_msg.Wire.verify_prefix scratch ~len
      in
      Dpa_msg.Wire.flip_bit_prefix fr ~len:(Bytes.length fr) bit;
      Dpa_msg.Wire.flip_bit_prefix scratch ~len bit;
      same && clean_verifies
      && Bytes.sub scratch 0 len = fr
      && (not (Dpa_msg.Wire.verify fr))
      && not (Dpa_msg.Wire.verify_prefix scratch ~len))

(* --- WAL: torn-tail recovery at every byte boundary ----------------------- *)

let nrecords = 4

let payload i = Bytes.of_string (Printf.sprintf "record-%02d-payload" i)

let wal_with n =
  let w = Dpa.Wal.create () in
  for i = 0 to n - 1 do
    Dpa.Wal.append w (payload i)
  done;
  w

let expected n = List.init n payload

(* Every payload [Wal.fold] reads, front to back. *)
let records w =
  List.rev (Dpa.Wal.fold w (fun b pos len acc -> Bytes.sub b pos len :: acc) [])

(* The tail record's full on-log image: length prefix + payload + CRC. *)
let rec_len = 4 + Bytes.length (payload 0) + 4

let check_lossless ~what w =
  ignore (Dpa.Wal.scan w);
  if records w <> expected nrecords then
    Alcotest.failf "%s: records lost or mangled after scan" what;
  Alcotest.(check int)
    (what ^ ": record count restored")
    nrecords (Dpa.Wal.count w);
  (* Idempotent: a second scan finds a healthy log. *)
  let r2 = Dpa.Wal.scan w in
  Alcotest.(check int) (what ^ ": second scan truncates nothing") 0
    r2.Dpa.Wal.truncated;
  Alcotest.(check int) (what ^ ": second scan repairs nothing") 0
    r2.Dpa.Wal.repaired

(* A record written in place through [reserve] and [commit] leaves the
   log image, and the doublewrite slot a torn tail is repaired from, that
   [append] of the same payload leaves. *)
let test_in_place_records () =
  let appended = wal_with nrecords and built = Dpa.Wal.create () in
  for i = 0 to nrecords - 1 do
    let p = payload i in
    let pos = Dpa.Wal.reserve built (Bytes.length p) in
    Bytes.blit p 0 (Dpa.Wal.image built) pos (Bytes.length p);
    Dpa.Wal.commit built
  done;
  let image w = Bytes.sub (Dpa.Wal.image w) 0 (Dpa.Wal.size w) in
  Alcotest.(check string)
    "same image"
    (Bytes.to_string (image appended))
    (Bytes.to_string (image built));
  Alcotest.(check int) "same count" (Dpa.Wal.count appended) (Dpa.Wal.count built);
  Alcotest.(check bool)
    "a second reserve is refused" true
    (ignore (Dpa.Wal.reserve built 1);
     match Dpa.Wal.reserve built 1 with
     | _ -> false
     | exception Invalid_argument _ -> true);
  Dpa.Wal.reset built;
  for i = 0 to nrecords - 1 do
    Dpa.Wal.append built (payload i)
  done;
  ignore (Dpa.Wal.tear built ~slot:false ~flip:false ~pos:3);
  check_lossless ~what:"in-place tail" built

let test_torn_tail_every_truncation () =
  (* Truncate the tail record back by every possible byte count (1 byte up
     to its whole image): the doublewrite slot must restore it bit for bit
     every time. *)
  for pos = 0 to rec_len - 1 do
    let w = wal_with nrecords in
    Alcotest.(check bool) "tear landed" true
      (Dpa.Wal.tear w ~slot:false ~flip:false ~pos);
    check_lossless ~what:(Printf.sprintf "tail truncated at byte %d" pos) w
  done

let test_torn_tail_every_bit_flip () =
  (* Flip every bit of the tail record's image in turn — length field,
     payload and CRC alike — and recover. *)
  for pos = 0 to (8 * rec_len) - 1 do
    let w = wal_with nrecords in
    Alcotest.(check bool) "tear landed" true
      (Dpa.Wal.tear w ~slot:false ~flip:true ~pos);
    check_lossless ~what:(Printf.sprintf "tail bit %d flipped" pos) w
  done

let test_torn_slot_every_position () =
  (* The tear may hit the doublewrite slot instead: the main image is then
     intact, so recovery must keep every record and never "repair" a
     damaged slot back over the good tail. *)
  for pos = 0 to (8 * rec_len) - 1 do
    let w = wal_with nrecords in
    Alcotest.(check bool) "tear landed" true
      (Dpa.Wal.tear w ~slot:true ~flip:true ~pos);
    let r = Dpa.Wal.scan w in
    Alcotest.(check int)
      (Printf.sprintf "slot bit %d: nothing truncated" pos)
      0 r.Dpa.Wal.truncated;
    check_lossless ~what:(Printf.sprintf "slot bit %d flipped" pos) w
  done;
  for pos = 0 to rec_len - 1 do
    let w = wal_with nrecords in
    Alcotest.(check bool) "tear landed" true
      (Dpa.Wal.tear w ~slot:true ~flip:false ~pos);
    check_lossless ~what:(Printf.sprintf "slot truncated at byte %d" pos) w
  done

let test_tear_on_empty_log_absorbed () =
  let w = Dpa.Wal.create () in
  Alcotest.(check bool) "empty log absorbs the tear" false
    (Dpa.Wal.tear w ~slot:false ~flip:true ~pos:17);
  Alcotest.(check bool) "empty slot absorbs the tear" false
    (Dpa.Wal.tear w ~slot:true ~flip:false ~pos:17);
  let r = Dpa.Wal.scan w in
  Alcotest.(check int) "nothing truncated" 0 r.Dpa.Wal.truncated;
  Alcotest.(check int) "nothing repaired" 0 r.Dpa.Wal.repaired

(* --- fault plan: corruption draws are an independent stream --------------- *)

let judge_one plan i =
  match
    Fault.judge plan ~now:(i * 1000)
      ~arrival:((i * 1000) + 500)
      ~src:(i mod 4)
      ~dst:((i + 1) mod 4)
      ~transfer_ns:300
  with
  | Fault.Deliver ->
    (Fault.Deliver, List.init (Fault.copies plan) (Fault.extra plan))
  | v -> (v, [])

let judge_stream plan = List.init 200 (judge_one plan)

let test_corrupt_draws_independent () =
  (* The verdict stream (drop/dup/delay) must be bit-identical whether or
     not corruption draws are interleaved with it — corruption has its own
     seeded RNG, so [corrupt=0] replays legacy schedules unchanged and
     turning corruption on never perturbs the loss schedule. *)
  let spec = { Workload.heavy_faults with Fault.corrupt = 0. } in
  let reference = judge_stream (Fault.make ~seed:77 spec ~nodes:4) in
  let corrupting =
    Fault.make ~seed:77 { spec with Fault.corrupt = 0.4 } ~nodes:4
  in
  let drawn = ref 0 in
  let verdicts =
    List.init 200 (fun i ->
        (match Fault.corrupt_copy corrupting with
        | Some _ -> incr drawn
        | None -> ());
        judge_one corrupting i)
  in
  Alcotest.(check bool) "corruption actually drawn" true (!drawn > 0);
  Alcotest.(check int) "corruptions counted" !drawn
    (Fault.corruptions corrupting);
  Alcotest.(check bool) "judge stream unperturbed by corruption draws" true
    (verdicts = reference);
  (* And a zero rate never touches the corruption RNG at all. *)
  let off = Fault.make ~seed:77 spec ~nodes:4 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "corrupt=0 draws nothing" true
      (Fault.corrupt_copy off = None)
  done;
  Alcotest.(check int) "corrupt=0 counts nothing" 0 (Fault.corruptions off)

(* --- transport: exactly-once under corruption ----------------------------- *)

(* Copies and acks the engine's fault plan chose to corrupt; 0 without a
   plan. *)
let drawn_corruptions engine =
  match Engine.fault engine with
  | Some f -> Fault.corruptions f
  | None -> 0

let test_exactly_once_under_corruption () =
  (* Corrupted copies are fenced wire-silently (no handler, no ack); the
     retransmission machinery must still deliver every message exactly
     once, the per-node drop attribution must sum to the total, and the
     fenced copies must be exactly the ones the plan drew: every drawn
     corruption detected, no clean copy dropped. *)
  let spec =
    { Fault.none with Fault.drop = 0.2; dup = 0.2; corrupt = 0.25 }
  in
  let engine =
    Engine.create (Machine.make ~nodes:3 ~faults:spec ~fault_seed:42 ())
  in
  let m = Engine.machine engine in
  let n = 60 in
  let count = Array.make n 0 in
  for i = 0 to n - 1 do
    let src = Engine.node engine (i mod 2) in
    Dpa_msg.Am.send engine ~src ~dst:2
      ~bytes:(m.Machine.msg_header_bytes + 32) (fun _ ->
        count.(i) <- count.(i) + 1)
  done;
  Engine.run engine;
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "handler %d runs once" i) 1 c)
    count;
  Alcotest.(check int) "drained" 0 (Dpa_msg.Am.in_flight engine);
  match Dpa_msg.Am.stats engine with
  | None -> Alcotest.fail "protocol state missing"
  | Some s ->
    Alcotest.(check bool) "corrupted copies were fenced" true
      (s.Dpa_msg.Am.corrupt_dropped > 0);
    Alcotest.(check bool) "fenced copies forced retransmits" true
      (s.Dpa_msg.Am.retransmits > 0);
    Alcotest.(check int) "per-node attribution sums to the total"
      s.Dpa_msg.Am.corrupt_dropped
      (Array.fold_left ( + ) 0 (Dpa_msg.Am.corrupt_dropped_per_node engine));
    Alcotest.(check int) "fenced copies are the drawn corruptions"
      (drawn_corruptions engine) s.Dpa_msg.Am.corrupt_dropped

(* --- whole phases under the integrity fault classes ----------------------- *)

(* Same deterministic runner test_fault.ml uses: integer-valued heap
   floats, so per-node sums are exact and order-independent — equality
   with the fault-free run means nothing was lost, duplicated or
   silently accepted corrupt. *)
let run_dpa ?faults ?(fault_seed = 0x5EED) spec =
  let nnodes, _, nitems, _ = spec in
  let heaps, item_reads = Test_properties.build_phase spec in
  let sums = Array.make nnodes 0. in
  let items node =
    Array.init nitems (fun item ->
        fun ctx ->
          List.iter
            (fun p ->
              Dpa.Runtime.read ctx p (fun ctx view ->
                  Dpa.Runtime.charge ctx 100;
                  sums.(Dpa.Runtime.node_id ctx) <-
                    sums.(Dpa.Runtime.node_id ctx)
                    +. Dpa_heap.Heap.view_float (Dpa.Runtime.heaps ctx) view 0))
            (item_reads node item))
  in
  let engine =
    Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ())
  in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:3 ~agg_max:4 ())
      ~items
  in
  ( sums,
    stats,
    Engine.elapsed engine,
    Dpa_msg.Am.stats engine,
    drawn_corruptions engine )

let corrupt_phase_gen =
  QCheck.Gen.(
    pair Test_properties.phase_gen
      (pair (float_range 0.05 0.4) (int_range 0 1000)))

let qcheck_corruption_preserves_sums =
  QCheck.Test.make
    ~name:"DPA phase under wire corruption computes fault-free sums" ~count:25
    (QCheck.make corrupt_phase_gen)
    (fun (phase, (corrupt, seed)) ->
      let reference, _, _, _, _ = run_dpa phase in
      let spec = { Fault.none with Fault.corrupt; drop = 0.05 } in
      let sums, _, _, am, drawn = run_dpa ~faults:spec ~fault_seed:seed phase in
      reference = sums
      &&
      match am with
      | Some s ->
        s.Dpa_msg.Am.in_flight = 0 && s.Dpa_msg.Am.corrupt_dropped = drawn
      | None -> true)

let corrupt_replay_phase =
  (4, 8, 10, List.init 30 (fun i -> ((i * 7) mod 4, (i * 3) mod 8)))

let test_fixed_seed_corruption_replay () =
  (* The corruption schedule is part of the seeded plan: the same seed must
     replay the identical run — same sums, same stats, same clock, same
     protocol counters (corrupt_dropped included). *)
  let spec = { Workload.heavy_faults with Fault.corrupt = 0.2 } in
  let s1, st1, e1, am1, drawn =
    run_dpa ~faults:spec ~fault_seed:9 corrupt_replay_phase
  in
  let s2, st2, e2, am2, _ =
    run_dpa ~faults:spec ~fault_seed:9 corrupt_replay_phase
  in
  Alcotest.(check bool) "sums replay" true (s1 = s2);
  Alcotest.(check bool) "stats replay" true (st1 = st2);
  Alcotest.(check int) "clock replays" e1 e2;
  Alcotest.(check bool) "protocol counters replay" true (am1 = am2);
  (match am1 with
  | None -> Alcotest.fail "protocol state missing"
  | Some s ->
    Alcotest.(check bool) "corruption actually fired" true
      (s.Dpa_msg.Am.corrupt_dropped > 0);
    Alcotest.(check int) "fenced copies are the drawn corruptions" drawn
      s.Dpa_msg.Am.corrupt_dropped);
  let reference, _, _, _, _ = run_dpa corrupt_replay_phase in
  Alcotest.(check bool) "corrupted run matches fault-free sums" true
    (reference = s1)

let test_caching_baseline_fenced () =
  (* The caching baseline's fetch path rides the same transport, so it
     inherits the checksum fence: corrupted copies must be dropped and
     re-sent, and the sums must match the fault-free run. *)
  let phase = corrupt_replay_phase in
  let dropped = ref 0 in
  let run ?faults ?(fault_seed = 0x5EED) () =
    Test_properties.run_variant
      (module Dpa_baselines.Caching)
      (fun heaps items ->
        let nnodes, _, _, _ = phase in
        let engine =
          Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ())
        in
        ignore
          (Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:7 ~items ());
        match Dpa_msg.Am.stats engine with
        | Some s -> dropped := s.Dpa_msg.Am.corrupt_dropped
        | None -> ())
      phase
  in
  let reference = run () in
  let spec = { Fault.none with Fault.drop = 0.05; corrupt = 0.25 } in
  let corrupted = run ~faults:spec ~fault_seed:21 () in
  Alcotest.(check bool) "caching sums survive corruption" true
    (reference = corrupted);
  Alcotest.(check bool) "fetch traffic was actually fenced" true (!dropped > 0)

(* --- torn WAL writes across crash-restarts -------------------------------- *)

(* An accumulate-heavy phase: remote updates stream from the first strip,
   so the update-WAL and applied-batch journal have live tails whenever a
   crash lands. Integer increments keep the reduction exact. *)
let run_accumulate ?faults ?(fault_seed = 0x5EED) () =
  let nnodes = 8 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let counters =
    Array.init (2 * nnodes) (fun i ->
        Dpa_heap.Heap.alloc heaps.(i mod nnodes) ~floats:(Array.make 2 0.)
          ~ptrs:[||])
  in
  let nctr = Array.length counters in
  let items node =
    Array.init 64 (fun i ->
        fun ctx ->
          Dpa.Runtime.charge ctx 2_000;
          Dpa.Runtime.accumulate ctx
            counters.((node + (3 * i)) mod nctr)
            ~idx:(i mod 2)
            (float_of_int ((node * 64) + i + 1)))
  in
  let engine =
    Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ())
  in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:8 ())
      ~items
  in
  let vals =
    Array.map
      (fun p ->
        Array.copy (Dpa_heap.Heap.deref heaps p).Dpa_heap.Obj_repr.floats)
      counters
  in
  (vals, stats, Engine.elapsed engine, Dpa_msg.Am.stats engine)

let torn_spec ~elapsed extra =
  {
    extra with
    Fault.crashes = 1;
    crash_ns = max 1_000 (elapsed / 8);
    outage_horizon_ns = max 1_000 (elapsed / 2);
    torn_wal = 1.;
  }

let test_torn_wal_recovery_end_to_end () =
  (* Every crash tears a durable-log tail (torn-wal=1); the crash-anchored
     scan must truncate the damage, repair from the doublewrite slot, and
     the restart re-drive must finish the reduction bit for bit. *)
  let reference, _, elapsed, _ = run_accumulate () in
  let vals, stats, _, am =
    run_accumulate ~faults:(torn_spec ~elapsed Fault.none) ~fault_seed:31 ()
  in
  Alcotest.(check bool) "counters bit-identical across torn crashes" true
    (reference = vals);
  Alcotest.(check int) "every node crashed once" 8 stats.Dpa.Dpa_stats.crashes;
  Alcotest.(check bool) "tears actually damaged live tails" true
    (stats.Dpa.Dpa_stats.wal_truncated > 0
    || stats.Dpa.Dpa_stats.wal_repaired > 0);
  match am with
  | None -> Alcotest.fail "protocol state missing"
  | Some s ->
    Alcotest.(check int) "quiescent: no in-flight envelopes" 0
      s.Dpa_msg.Am.in_flight

let test_torn_wal_under_full_cocktail () =
  (* The heavy preset plus corruption plus torn crashes — the a14 matrix's
     worst cell, reduced: the reduction must still be exact. *)
  let reference, _, elapsed, _ = run_accumulate () in
  let spec =
    torn_spec ~elapsed { Workload.heavy_faults with Fault.corrupt = 0.1 }
  in
  let vals, stats, _, am = run_accumulate ~faults:spec ~fault_seed:47 () in
  Alcotest.(check bool) "counters bit-identical under the full cocktail" true
    (reference = vals);
  Alcotest.(check int) "every node crashed once" 8 stats.Dpa.Dpa_stats.crashes;
  (match am with
  | None -> Alcotest.fail "protocol state missing"
  | Some s ->
    Alcotest.(check bool) "corruption fired" true
      (s.Dpa_msg.Am.corrupt_dropped > 0);
    Alcotest.(check int) "quiescent" 0 s.Dpa_msg.Am.in_flight);
  (* Replay: the whole cocktail is seeded. *)
  let vals2, stats2, _, _ = run_accumulate ~faults:spec ~fault_seed:47 () in
  Alcotest.(check bool) "cocktail replays bit-identically" true
    (vals = vals2 && stats = stats2)

let suites =
  [
    ( "wire integrity",
      [
        Alcotest.test_case "seal then verify" `Quick test_frame_seal_verify;
        Alcotest.test_case "every single-bit flip rejected" `Quick
          test_frame_avalanche;
        QCheck_alcotest.to_alcotest qcheck_frame_rejects_any_flip;
      ] );
    ( "wal integrity",
      [
        Alcotest.test_case "torn tail: every truncation recovers" `Quick
          test_torn_tail_every_truncation;
        Alcotest.test_case "torn tail: every bit flip recovers" `Quick
          test_torn_tail_every_bit_flip;
        Alcotest.test_case "torn slot: every position recovers" `Quick
          test_torn_slot_every_position;
        Alcotest.test_case "tear on empty log absorbed" `Quick
          test_tear_on_empty_log_absorbed;
        Alcotest.test_case "in-place records match append" `Quick
          test_in_place_records;
      ] );
    ( "corruption fencing",
      [
        Alcotest.test_case "corruption draws are an independent stream" `Quick
          test_corrupt_draws_independent;
        Alcotest.test_case "exactly-once under corruption" `Quick
          test_exactly_once_under_corruption;
        Alcotest.test_case "fixed seed replays the corruption schedule" `Quick
          test_fixed_seed_corruption_replay;
        Alcotest.test_case "caching baseline inherits the fence" `Quick
          test_caching_baseline_fenced;
        QCheck_alcotest.to_alcotest qcheck_corruption_preserves_sums;
      ] );
    ( "torn writes",
      [
        Alcotest.test_case "torn WAL recovery end to end" `Quick
          test_torn_wal_recovery_end_to_end;
        Alcotest.test_case "full fault cocktail stays exact" `Quick
          test_torn_wal_under_full_cocktail;
      ] );
  ]
