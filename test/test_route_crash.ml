(* Route × crash chaos tests: tree-routed aggregation under crash-restart
   fault plans, covered by the origin-anchored end-to-end ack. Every routed
   batch stays in its origin's [out_updates] (WAL-journaled) until the
   final owner's application-level ack arrives; relay hops are best-effort
   combiners whose crashes only cost a straight-line re-issue, which the
   owner's applied-batch journal dedups. The fixed-point accumulation
   grids make every recovered merge bit-identical to the fault-free run —
   which is exactly what these tests assert. *)

open Dpa_sim
open Dpa_heap

let nnodes = 8

(* The fan-in workload of test_reduction.ml: every node bumps four
   counters owned by node 0 across many strips. [charge] sets per-node
   compute cost — skewing it makes a relay hop finish late, so routed
   batches from fast origins park there long enough for a crash window
   to land on top of them. *)
let run_fanin ?faults ?(fault_seed = 0x5EED) ?(route = Dpa.Config.All_dsts)
    ?(charge = fun _node -> 1_000) () =
  let heaps = Heap.cluster ~nnodes in
  let counters =
    Array.init 4 (fun _ -> Heap.alloc heaps.(0) ~floats:[| 0.; 0. |] ~ptrs:[||])
  in
  let items node =
    Array.init 32 (fun i ->
        fun ctx ->
          Dpa.Runtime.charge ctx (charge node);
          let c = counters.(i mod 4) in
          Dpa.Runtime.accumulate ctx c ~idx:0 1.0;
          Dpa.Runtime.accumulate ctx c ~idx:1 (float_of_int ((node * 32) + i)))
  in
  let engine =
    Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ())
  in
  let breakdown, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:4 ~route ())
      ~items
  in
  let vals =
    Array.map
      (fun c -> Array.copy (Heap.deref heaps c).Obj_repr.floats)
      counters
  in
  (vals, stats, breakdown.Breakdown.elapsed_ns)

let reference = lazy (let v, _, e = run_fanin ?faults:None () in (v, e))

(* Crash knobs scaled to the phase: windows drawn inside the first half of
   the fault-free elapsed time, down for an eighth of it — mid-phase
   crashes that land while batches are parked at relays. *)
let crash_spec ?(base = Fault.none) ~elapsed ~crashes () =
  {
    base with
    Fault.crashes;
    crash_ns = max 1_000 (elapsed / 8);
    outage_horizon_ns = max 1_000 (elapsed / 2);
  }

let test_relay_crash_exact_with_reissues () =
  (* Node 4 is the binomial-tree relay for origins 5 and 6 (dst 0: rank =
     src, next hop clears the lowest set bit). Making its compute 16×
     heavier parks their routed batches at node 4 for most of the phase,
     so the crash windows reliably wipe live relay state. *)
  let charge node = if node = 4 then 16_000 else 1_000 in
  let reference, _, elapsed = run_fanin ~charge () in
  let spec = crash_spec ~elapsed ~crashes:1 () in
  let wiped = ref 0 and reissued = ref 0 and crashed = ref 0 in
  for seed = 1 to 24 do
    let vals, stats, _ = run_fanin ~faults:spec ~fault_seed:seed ~charge () in
    if vals <> reference then
      Alcotest.failf "routed+crash diverged from fault-free run at seed %d"
        seed;
    wiped := !wiped + stats.Dpa.Dpa_stats.relay_wiped;
    reissued :=
      !reissued + stats.Dpa.Dpa_stats.routed_reissues
      + stats.Dpa.Dpa_stats.upd_reissues;
    crashed := !crashed + stats.Dpa.Dpa_stats.crashes
  done;
  (* The sweep must actually exercise the recovery machinery, not just
     schedule crashes past the phase end. *)
  Alcotest.(check bool) "some crashes landed mid-phase" true (!crashed > 0);
  Alcotest.(check bool) "a crash wiped parked relay entries" true (!wiped > 0);
  Alcotest.(check bool) "origins re-issued straight-line" true (!reissued > 0)

let test_origin_crash_with_held_batches () =
  (* Two crash windows per node: origins crash too, losing their in-memory
     [out_updates] image mid-custody. The restart walk rebuilds it from
     the checksum-scanned WAL and re-sends every surviving batch; the
     owner's journal dedups whichever copy (tree or straight-line) arrives
     second. *)
  let reference, elapsed = Lazy.force reference in
  let spec = crash_spec ~elapsed ~crashes:2 () in
  let crashed = ref 0 in
  for seed = 1 to 16 do
    let vals, stats, _ = run_fanin ~faults:spec ~fault_seed:seed () in
    if vals <> reference then
      Alcotest.failf "origin-crash schedule diverged at seed %d" seed;
    crashed := !crashed + stats.Dpa.Dpa_stats.crashes
  done;
  Alcotest.(check bool) "crashes landed mid-phase" true (!crashed > 0)

let test_ack_loss_and_straightline_dedup () =
  (* Heavy message faults on top of crashes: 10% of all copies drop —
     app-level acks included — so lost acks force duplicate straight-line
     replays that the owner's journal must absorb without double-applying
     against the copies that survived the tree. *)
  let reference, elapsed = Lazy.force reference in
  let spec = crash_spec ~base:Workload.heavy_faults ~elapsed ~crashes:1 () in
  for seed = 1 to 8 do
    let vals, _, _ = run_fanin ~faults:spec ~fault_seed:seed () in
    if vals <> reference then
      Alcotest.failf "heavy+crash routed schedule diverged at seed %d" seed
  done

let test_replay_determinism () =
  let _, elapsed = Lazy.force reference in
  let spec = crash_spec ~base:Workload.heavy_faults ~elapsed ~crashes:1 () in
  let v1, s1, e1 = run_fanin ~faults:spec ~fault_seed:7 () in
  let v2, s2, e2 = run_fanin ~faults:spec ~fault_seed:7 () in
  Alcotest.(check bool) "values replay bit-for-bit" true (v1 = v2);
  Alcotest.(check bool) "stats replay exactly" true (s1 = s2);
  Alcotest.(check int) "elapsed replays exactly" e1 e2

let qcheck_routed_crash_exact =
  QCheck.Test.make ~name:"routed sums under random crash plans = fault-free"
    ~count:30
    QCheck.(
      quad (int_range 1 10_000) (int_range 0 2) (float_range 0. 0.15)
        (float_range 0. 0.1))
    (fun (seed, crashes, drop, dup) ->
      let reference, elapsed = Lazy.force reference in
      let spec =
        {
          (crash_spec ~elapsed ~crashes ()) with
          Fault.drop;
          dup;
          delay = 0.05;
          jitter_ns = 10_000;
        }
      in
      let vals, _, _ = run_fanin ~faults:spec ~fault_seed:seed () in
      vals = reference)

let suites =
  [
    ( "core.route_crash",
      [
        Alcotest.test_case "relay-hop crash: exact, with re-issues" `Quick
          test_relay_crash_exact_with_reissues;
        Alcotest.test_case "origin crash with held batches" `Quick
          test_origin_crash_with_held_batches;
        Alcotest.test_case "ack loss + straight-line replay dedup" `Quick
          test_ack_loss_and_straightline_dedup;
        Alcotest.test_case "fixed-seed replay determinism" `Quick
          test_replay_determinism;
        QCheck_alcotest.to_alcotest qcheck_routed_crash_exact;
      ] );
  ]
