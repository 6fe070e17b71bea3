open Dpa_sim
module V = Dpa_baselines.Variant

let machine nodes = Machine.t3d ~nodes

(* One workload phase under [variant], dispatched by [Variant.run_phase]. *)
let run_variant ?(nnodes = 4) ?(nobjs = 32) ?(nitems = 20) ?(reads = 8) variant
    =
  let w = Workload.make ~nnodes ~nobjs in
  let engine = Engine.create (machine nnodes) in
  let sums = Array.make nnodes 0. in
  let items a = Workload.items a w ~nitems ~reads ~work_ns:200 sums in
  let breakdown, stats =
    V.run_phase variant ~label:"workload" ~engine ~heaps:w.Workload.heaps
      { V.items }
  in
  (w, sums, breakdown, stats)

let run_caching ?nnodes ?nobjs ?nitems ?reads ?(capacity = 64) () =
  let w, sums, breakdown, stats =
    run_variant ?nnodes ?nobjs ?nitems ?reads (V.Caching { capacity })
  in
  (w, sums, breakdown, Option.get (V.cache_stats stats))

let run_blocking ?nnodes ?nobjs ?nitems ?reads () =
  let w, sums, breakdown, stats =
    run_variant ?nnodes ?nobjs ?nitems ?reads V.Blocking
  in
  (w, sums, breakdown, Option.get (V.cache_stats stats))

let check_sums w sums ~nitems ~reads =
  Array.iteri
    (fun node got ->
      let want = Workload.expected_sum w ~node ~nitems ~reads in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "node %d" node) want got)
    sums

let test_caching_correct () =
  let w, sums, _, _ = run_caching () in
  check_sums w sums ~nitems:20 ~reads:8

let test_blocking_correct () =
  let w, sums, _, _ = run_blocking () in
  check_sums w sums ~nitems:20 ~reads:8

let test_caching_hits () =
  let _, _, _, stats = run_caching ~capacity:1024 () in
  Alcotest.(check bool) "some hits" true (stats.Dpa_baselines.Caching.hits > 0)

let test_blocking_never_hits () =
  let _, _, _, stats = run_blocking () in
  Alcotest.(check int) "no hits" 0 stats.Dpa_baselines.Caching.hits;
  Alcotest.(check int) "no cached objects" 0
    stats.Dpa_baselines.Caching.peak_cached

let test_caching_capacity_bound () =
  let cap = 8 in
  let _, _, _, stats = run_caching ~capacity:cap () in
  Alcotest.(check bool) "peak within capacity" true
    (stats.Dpa_baselines.Caching.peak_cached <= cap)

let test_read_accounting () =
  let nnodes = 4 and nitems = 20 and reads = 8 in
  let _, _, _, stats = run_caching ~nnodes ~nitems ~reads () in
  let s = stats in
  Alcotest.(check int) "reads partitioned" (nnodes * nitems * reads)
    (s.Dpa_baselines.Caching.hits + s.Dpa_baselines.Caching.misses
   + s.Dpa_baselines.Caching.local)

(* End-to-end fetch retries under the heavy preset: an outage window
   outlasts the fetch timer, so a retried miss gets two replies, and the
   one that finds its miss already done must be a no-op. Every miss
   completes once with its own object: the sums and the miss count match
   the fault-free run. (A stale reply that completed a later miss early
   would keep the sums but move modelled time; the byte-identity set's
   faulted t2 run catches that.) *)
let test_caching_retries_idempotent () =
  let nnodes = 4 and nitems = 40 and reads = 8 in
  let w = Workload.make ~nnodes ~nobjs:32 in
  let run ?faults ~fault_seed () =
    let sums = Array.make nnodes 0. in
    let items =
      Workload.items
        (module Dpa_baselines.Caching)
        w ~nitems ~reads ~work_ns:100 sums
    in
    let engine =
      Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ())
    in
    let _, stats =
      Dpa_baselines.Caching.run_phase ~engine ~heaps:w.Workload.heaps
        ~capacity:4 ~items ()
    in
    (sums, stats)
  in
  let _, clean = run ~fault_seed:0 () in
  let retries =
    List.fold_left
      (fun acc fault_seed ->
        let sums, s = run ~faults:Workload.heavy_faults ~fault_seed () in
        check_sums w sums ~nitems ~reads;
        Alcotest.(check int) "misses" clean.Dpa_baselines.Caching.misses
          s.Dpa_baselines.Caching.misses;
        acc + s.Dpa_baselines.Caching.retries)
      0 [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "some fetch retried" true (retries > 0)

let test_runtimes_agree () =
  (* DPA, caching and blocking must compute identical results. *)
  let nnodes = 3 and nobjs = 16 and nitems = 15 and reads = 6 in
  let dpa_sums =
    let w = Workload.make ~nnodes ~nobjs in
    let engine = Engine.create (machine nnodes) in
    let sums = Array.make nnodes 0. in
    let items =
      Workload.items (module Dpa.Runtime) w ~nitems ~reads ~work_ns:100 sums
    in
    ignore
      (Dpa.Runtime.run_phase ~engine ~heaps:w.Workload.heaps
         ~config:(Dpa.Config.dpa ()) ~items);
    sums
  in
  let caching_sums =
    let w = Workload.make ~nnodes ~nobjs in
    let engine = Engine.create (machine nnodes) in
    let sums = Array.make nnodes 0. in
    let items =
      Workload.items
        (module Dpa_baselines.Caching)
        w ~nitems ~reads ~work_ns:100 sums
    in
    ignore
      (Dpa_baselines.Caching.run_phase ~engine ~heaps:w.Workload.heaps
         ~capacity:32 ~items ());
    sums
  in
  Array.iteri
    (fun i a ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "node %d" i) a
        caching_sums.(i))
    dpa_sums

let test_dpa_beats_blocking () =
  (* The headline property: with remote traffic, DPA's overlap+aggregation
     must beat blocking round trips. *)
  let nnodes = 4 and nitems = 40 and reads = 8 in
  let dpa_time =
    let w = Workload.make ~nnodes ~nobjs:32 in
    let engine = Engine.create (machine nnodes) in
    let sums = Array.make nnodes 0. in
    let items =
      Workload.items (module Dpa.Runtime) w ~nitems ~reads ~work_ns:200 sums
    in
    let b, _ =
      Dpa.Runtime.run_phase ~engine ~heaps:w.Workload.heaps
        ~config:(Dpa.Config.dpa ()) ~items
    in
    b.Breakdown.elapsed_ns
  in
  let blocking_time =
    let _, _, b, _ = run_blocking ~nnodes ~nitems ~reads () in
    b.Breakdown.elapsed_ns
  in
  Alcotest.(check bool)
    (Printf.sprintf "dpa %d < blocking %d" dpa_time blocking_time)
    true
    (dpa_time < blocking_time)

let test_prefetch_correct () =
  let w, sums, _, _ =
    run_variant ~nnodes:3 ~nobjs:16 ~nitems:10 ~reads:5
      (V.Prefetch { strip_size = 50 })
  in
  check_sums w sums ~nitems:10 ~reads:5

(* [Variant.run_phase] is exactly the direct runtime call each constructor
   stands for: the same breakdown, stats and sums, and the same phase label
   in the observability sink. *)
let test_dispatch_matches_direct () =
  let nnodes = 3 and nitems = 12 and reads = 6 and label = "dispatch" in
  let phase run =
    let w = Workload.make ~nnodes ~nobjs:16 in
    let engine = Engine.create (machine nnodes) in
    let sink = Dpa_obs.Sink.create () in
    Engine.set_sink engine (Some sink);
    let sums = Array.make nnodes 0. in
    let items a = Workload.items a w ~nitems ~reads ~work_ns:200 sums in
    let breakdown, stats = run ~engine ~heaps:w.Workload.heaps { V.items } in
    ((breakdown, stats, sums), List.map fst (Dpa_obs.Sink.meta sink))
  in
  let dpa ~label config ~engine ~heaps { V.items } =
    let b, s =
      Dpa.Runtime.run_phase_labeled ~label ~engine ~heaps ~config
        ~items:(items (module Dpa.Runtime))
    in
    (b, V.Dpa_stats s)
  in
  let caching ~capacity ?hash () ~engine ~heaps { V.items } =
    let b, s =
      Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity ?hash
        ~items:(items (module Dpa_baselines.Caching))
        ()
    in
    (b, V.Cache_stats s)
  in
  List.iter
    (fun (variant, direct, key) ->
      let name = V.name variant in
      let got, got_keys = phase (V.run_phase variant ~label) in
      let want, want_keys = phase direct in
      Alcotest.(check bool) (name ^ ": breakdown, stats, sums") true
        (got = want);
      Alcotest.(check (list string)) (name ^ ": sink meta") want_keys got_keys;
      Option.iter
        (fun key ->
          Alcotest.(check bool) (name ^ ": " ^ key) true
            (List.mem key got_keys))
        key)
    [
      ( V.dpa ~strip_size:4 (),
        dpa ~label (Dpa.Config.dpa ~strip_size:4 ()),
        Some "dpa_stats.dispatch" );
      ( V.Prefetch { strip_size = 4 },
        dpa ~label:"dispatch-prefetch"
          (Dpa.Config.pipeline_only ~strip_size:4 ()),
        Some "dpa_stats.dispatch-prefetch" );
      (V.Caching { capacity = 8 }, caching ~capacity:8 (), None);
      (V.Blocking, caching ~capacity:0 ~hash:false (), None);
    ]

let suites =
  [
    ( "baselines",
      [
        Alcotest.test_case "caching correct" `Quick test_caching_correct;
        Alcotest.test_case "blocking correct" `Quick test_blocking_correct;
        Alcotest.test_case "caching hits" `Quick test_caching_hits;
        Alcotest.test_case "blocking never hits" `Quick test_blocking_never_hits;
        Alcotest.test_case "caching retries idempotent" `Quick
          test_caching_retries_idempotent;
        Alcotest.test_case "capacity bound" `Quick test_caching_capacity_bound;
        Alcotest.test_case "read accounting" `Quick test_read_accounting;
        Alcotest.test_case "runtimes agree" `Quick test_runtimes_agree;
        Alcotest.test_case "dpa beats blocking" `Quick test_dpa_beats_blocking;
        Alcotest.test_case "prefetch correct" `Quick test_prefetch_correct;
        Alcotest.test_case "dispatch matches direct" `Quick
          test_dispatch_matches_direct;
      ] );
  ]
