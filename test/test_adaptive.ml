(* The adaptive control layer: the Jacobson–Karels round-trip estimator,
   the strip-size controller (clamped ≡ static, bounds respected,
   convergence), the RTT-estimated end-to-end timeout under faults, the
   dedup-table pruning at the phase barrier, and the accounting fixes
   (max_outstanding covers every suspension path; counter tracks survive a
   category filter). *)

open Dpa_sim

(* --- Rtt: the estimator itself ------------------------------------------ *)

let test_rtt_first_sample () =
  let t = Dpa_msg.Rtt.create () in
  Alcotest.(check int) "no samples" 0 (Dpa_msg.Rtt.samples t);
  Alcotest.(check int) "fallback before samples" 777
    (Dpa_msg.Rtt.rto_ns t ~fallback:777);
  Dpa_msg.Rtt.observe t 1000;
  Alcotest.(check int) "srtt = r" 1000 (Dpa_msg.Rtt.srtt_ns t);
  Alcotest.(check int) "rttvar = r/2" 500 (Dpa_msg.Rtt.rttvar_ns t);
  Alcotest.(check int) "estimate = srtt + 4*rttvar" 3000
    (Dpa_msg.Rtt.estimate_ns t);
  Alcotest.(check int) "min recorded" 1000 (Dpa_msg.Rtt.min_ns t)

let test_rtt_converges_on_constant_input () =
  let t = Dpa_msg.Rtt.create () in
  for _ = 1 to 200 do
    Dpa_msg.Rtt.observe t 5000
  done;
  (* Constant input: srtt converges to the input, rttvar decays toward 0,
     so the estimate settles just above the true round trip. *)
  Alcotest.(check int) "srtt converged" 5000 (Dpa_msg.Rtt.srtt_ns t);
  Alcotest.(check bool) "estimate tight" true
    (Dpa_msg.Rtt.estimate_ns t <= 5000 + 16)

let qcheck_rtt_positive_and_floored =
  QCheck.Test.make
    ~name:"rtt: estimates positive, RTO never under the measured floor"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 1 1_000_000))
    (fun samples ->
      let t = Dpa_msg.Rtt.create () in
      List.iter (Dpa_msg.Rtt.observe t) samples;
      let floor = List.fold_left min max_int samples in
      Dpa_msg.Rtt.srtt_ns t > 0
      && Dpa_msg.Rtt.rttvar_ns t >= 0
      && Dpa_msg.Rtt.estimate_ns t > 0
      && Dpa_msg.Rtt.rto_ns t ~fallback:1 >= floor)

let qcheck_rtt_deterministic =
  QCheck.Test.make ~name:"rtt: same samples, same estimates" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 30) (int_range 1 100_000))
    (fun samples ->
      let run () =
        let t = Dpa_msg.Rtt.create () in
        List.iter (Dpa_msg.Rtt.observe t) samples;
        (Dpa_msg.Rtt.srtt_ns t, Dpa_msg.Rtt.rttvar_ns t,
         Dpa_msg.Rtt.estimate_ns t)
      in
      run () = run ())

(* --- the strip-size controller ------------------------------------------ *)

(* Run one random phase (test_properties workloads) under a given config,
   returning everything an equivalence check needs. *)
let run_config ?faults ?(fault_seed = 0x5EED) ?sink config spec =
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
  let saved = Dpa_obs.Sink.global () in
  Dpa_obs.Sink.set_global sink;
  let engine =
    Fun.protect
      ~finally:(fun () -> Dpa_obs.Sink.set_global saved)
      (fun () -> Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ()))
  in
  let _, stats = Dpa.Runtime.run_phase ~engine ~heaps ~config ~items in
  (sums, stats, Engine.elapsed engine, engine)

let clamped_phase_gen = Test_properties.phase_gen

let qcheck_clamped_auto_is_static =
  QCheck.Test.make
    ~name:"clamped auto (min = max) is bit-identical to the static strip"
    ~count:40 (QCheck.make clamped_phase_gen)
    (fun spec ->
      let s_sums, s_stats, s_elapsed, _ =
        run_config (Dpa.Config.dpa ~strip_size:3 ~agg_max:4 ()) spec
      in
      let a_sums, a_stats, a_elapsed, _ =
        run_config
          (Dpa.Config.dpa_auto ~strip_size:3 ~min_strip:3 ~max_strip:3
             ~agg_max:4 ())
          spec
      in
      s_sums = a_sums && s_stats = a_stats && s_elapsed = a_elapsed)

let steady_phase nnodes =
  (* Every item on every node reads the same three remote objects — the
     steadiest workload there is, so the controller must settle. *)
  let nobjs = 4 in
  let nitems = 400 in
  let reads = List.init (nitems * 3) (fun i -> (i mod nnodes, i mod nobjs)) in
  (nnodes, nobjs, nitems, reads)

let test_auto_within_bounds () =
  let sink = Dpa_obs.Sink.create () in
  let min_strip = 2 and max_strip = 16 in
  let _, stats, _, _ =
    run_config ~sink
      (Dpa.Config.dpa_auto ~strip_size:4 ~min_strip ~max_strip ~d_target:6 ())
      (steady_phase 3)
  in
  let sizes =
    List.filter_map
      (fun (e : Dpa_obs.Sink.event) ->
        if e.Dpa_obs.Sink.kind = Dpa_obs.Sink.Counter
           && e.Dpa_obs.Sink.name = "strip_size"
        then
          match List.assoc_opt "value" e.Dpa_obs.Sink.args with
          | Some (Dpa_obs.Sink.Int v) -> Some v
          | _ -> None
        else None)
      (Dpa_obs.Sink.events sink)
  in
  Alcotest.(check bool) "controller sampled" true (List.length sizes > 0);
  List.iter
    (fun v ->
      if v < min_strip || v > max_strip then
        Alcotest.failf "strip size %d outside [%d, %d]" v min_strip max_strip)
    sizes;
  Alcotest.(check bool) "final within bounds" true
    (stats.Dpa.Dpa_stats.strip_size_final >= min_strip
    && stats.Dpa.Dpa_stats.strip_size_final <= max_strip)

let test_auto_converges () =
  let nnodes = 3 in
  let min_strip = 2 and max_strip = 64 in
  let _, stats, _, _ =
    run_config
      (Dpa.Config.dpa_auto ~strip_size:4 ~min_strip ~max_strip ~d_target:6 ())
      (steady_phase nnodes)
  in
  (* On a steady workload the hysteresis band lets each node ramp to its
     operating point and stay: the resize count is bounded by the ramp
     (log2 of the bound ratio) plus a little settling slack, per node —
     not by the strip count. *)
  let ramp = 6 (* log2 (64/2) + 1 *) in
  let budget = nnodes * (ramp + 4) in
  let resizes =
    stats.Dpa.Dpa_stats.strip_grows + stats.Dpa.Dpa_stats.strip_shrinks
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d resizes within budget %d" resizes budget)
    true
    (resizes <= budget);
  Alcotest.(check bool) "many strips ran" true (stats.Dpa.Dpa_stats.strips > 20)

(* --- adaptive RTO under faults ------------------------------------------ *)

let chaos_spec =
  {
    Fault.none with
    Fault.drop = 0.15;
    dup = 0.05;
    delay = 0.2;
    jitter_ns = 30_000;
    outages = 1;
    outage_ns = 500_000;
    outage_horizon_ns = 5_000_000;
  }

let rto_phase = steady_phase 4

let run_rto ~adaptive =
  let nnodes, _, nitems, _ = rto_phase in
  let heaps, item_reads = Test_properties.build_phase rto_phase in
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
    Engine.create
      (Machine.make ~nodes:nnodes ~faults:chaos_spec ~fault_seed:0x5EED
         ~adaptive_rto:adaptive ())
  in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:5 ~agg_max:4 ())
      ~items
  in
  (sums, stats, Engine.elapsed engine, Dpa_msg.Am.stats engine)

let reference_sums () =
  let nnodes, _, nitems, _ = rto_phase in
  let heaps, item_reads = Test_properties.build_phase rto_phase in
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
  let engine = Engine.create (Machine.make ~nodes:nnodes ()) in
  ignore
    (Dpa.Runtime.run_phase ~engine ~heaps
       ~config:(Dpa.Config.dpa ~strip_size:5 ~agg_max:4 ())
       ~items);
  sums

let test_adaptive_rto_correct_and_no_worse () =
  let reference = reference_sums () in
  let c_sums, c_stats, _, _ = run_rto ~adaptive:false in
  let a_sums, a_stats, _, _ = run_rto ~adaptive:true in
  Alcotest.(check bool) "constant RTO: fault-free sums" true
    (c_sums = reference);
  Alcotest.(check bool) "adaptive RTO: fault-free sums" true
    (a_sums = reference);
  (* The estimator can only raise the end-to-end timeout above its
     constant floor, so it never re-issues more than the constant wheel. *)
  Alcotest.(check bool)
    (Printf.sprintf "adaptive retries (%d) <= constant retries (%d)"
       a_stats.Dpa.Dpa_stats.rt_retries c_stats.Dpa.Dpa_stats.rt_retries)
    true
    (a_stats.Dpa.Dpa_stats.rt_retries <= c_stats.Dpa.Dpa_stats.rt_retries)

let test_adaptive_rto_deterministic () =
  let r1 = run_rto ~adaptive:true in
  let r2 = run_rto ~adaptive:true in
  Alcotest.(check bool) "same seed, identical run" true (r1 = r2)

let test_e2e_rto_fallback_without_state () =
  let engine = Engine.create (Machine.make ~nodes:2 ()) in
  Alcotest.(check int) "fallback verbatim" 12345
    (Dpa_msg.Am.e2e_rto engine ~fallback:12345);
  Alcotest.(check bool) "no link estimator" true
    (Dpa_msg.Am.link_rtt engine ~src:0 ~dst:1 = None)

(* --- accounting fixes --------------------------------------------------- *)

let test_max_outstanding_counts_local_reads () =
  let nnodes = 1 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init 8 (fun i ->
        Dpa_heap.Heap.alloc heaps.(0) ~floats:[| float_of_int i |] ~ptrs:[||])
  in
  let items _node =
    [|
      (fun ctx ->
        Array.iter (fun p -> Dpa.Runtime.read ctx p (fun _ _ -> ())) ptrs);
    |]
  in
  let engine = Engine.create (Machine.make ~nodes:nnodes ()) in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:8 ())
      ~items
  in
  (* All eight reads are inline-local and enqueue before the scheduler
     dispatches any of them; the peak must see all eight, not zero (the
     old accounting only sampled the remote-miss path). *)
  Alcotest.(check int) "inline-local reads counted" 8
    stats.Dpa.Dpa_stats.max_outstanding

let test_counter_tracks_survive_category_filter () =
  let s = Dpa_obs.Sink.create () in
  Dpa_obs.Sink.set_categories s (Some [ "phase" ]);
  Dpa_obs.Sink.counter s ~name:"outstanding" ~node:0 ~ts:5 3;
  Dpa_obs.Sink.instant s ~cat:"msg" ~name:"m" ~node:0 ~ts:6;
  Alcotest.(check int) "counter kept despite the filter" 1
    (List.length (Dpa_obs.Sink.events s));
  Alcotest.(check int) "instant still filtered" 1 (Dpa_obs.Sink.filtered s);
  (* spans_only still drops counters: its contract is spans and nothing
     else. *)
  Dpa_obs.Sink.set_spans_only s true;
  Dpa_obs.Sink.counter s ~name:"outstanding" ~node:0 ~ts:7 4;
  Alcotest.(check int) "spans_only drops counters" 2 (Dpa_obs.Sink.filtered s)

let suites =
  [
    ( "adaptive control",
      [
        Alcotest.test_case "rtt first sample (RFC 6298 init)" `Quick
          test_rtt_first_sample;
        Alcotest.test_case "rtt converges on constant input" `Quick
          test_rtt_converges_on_constant_input;
        QCheck_alcotest.to_alcotest qcheck_rtt_positive_and_floored;
        QCheck_alcotest.to_alcotest qcheck_rtt_deterministic;
        QCheck_alcotest.to_alcotest qcheck_clamped_auto_is_static;
        Alcotest.test_case "auto strip stays within bounds" `Quick
          test_auto_within_bounds;
        Alcotest.test_case "auto strip converges on steady workloads" `Quick
          test_auto_converges;
        Alcotest.test_case "adaptive RTO: correct and never more retries"
          `Quick test_adaptive_rto_correct_and_no_worse;
        Alcotest.test_case "adaptive RTO: fixed seed replays identically"
          `Quick test_adaptive_rto_deterministic;
        Alcotest.test_case "e2e RTO falls back without samples" `Quick
          test_e2e_rto_fallback_without_state;
        Alcotest.test_case "max_outstanding counts every suspension" `Quick
          test_max_outstanding_counts_local_reads;
        Alcotest.test_case "counter tracks survive --trace-cats" `Quick
          test_counter_tracks_survive_category_filter;
      ] );
  ]
