open Dpa_harness

(* A deliberately tiny configuration so every experiment runner finishes in
   well under a second. *)
let tiny =
  {
    Runconf.small with
    Runconf.name = "tiny";
    bh_bodies = 256;
    bh_steps = 1;
    fmm_particles = 256;
    fmm_p = 6;
    procs = [ 1; 4 ];
    breakdown_procs = 4;
    cache_capacity = 512;
  }

let test_table_render () =
  let t =
    Table.(
      of_rows
        [ column "A" "a" string fst; column "LONG HEADER" "l" string snd ]
        [ ("1", "x"); ("22", "yy") ])
  in
  let s = Table.render t in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | header :: sep :: _ ->
    Alcotest.(check bool) "aligned" true
      (String.length header = String.length sep)
  | _ -> Alcotest.fail "too few lines");
  Alcotest.(check bool) "contains row" true
    (List.exists (fun l -> l = "22  yy         ") lines)

let test_table_formats () =
  Alcotest.(check string) "sec" "118.02" (Table.sec 118.019);
  Alcotest.(check string) "speedup" "42.4" (Table.speedup 42.42);
  let none = Table.(column "X" "x" (option (float sec)) Fun.id) in
  Alcotest.(check string) "opt none" "X\n-\n-\n"
    (Table.render (Table.of_rows [ none ] [ None ]))

type cells = { n : int; x : float; s : string; ok : bool; o : int option }

(* Every kind of cell: the text each prints and the JSON each encodes,
   floats at full precision rather than as printed. *)
let test_table_columns () =
  let columns =
    Table.
      [
        column "N" "n" int (fun r -> r.n);
        column "X" "x" (float sec) (fun r -> r.x);
        column "S" "s" string (fun r -> r.s);
        column "OK" "ok" (bool ~yes:"yes" ~no:"no") (fun r -> r.ok);
        column "O" "o" (option int) (fun r -> r.o);
      ]
  in
  let rows =
    [
      { n = 7; x = 1.0 /. 3.0; s = "a b"; ok = true; o = None };
      { n = -2; x = 118.019; s = ""; ok = false; o = Some 4 };
    ]
  in
  Alcotest.(check string) "text"
    (String.concat "\n"
       [
         "N   X       S    OK   O";
         "--  ------  ---  ---  -";
         "7   0.33    a b  yes  -";
         "-2  118.02       no   4";
         "";
       ])
    (Table.render (Table.of_rows columns rows));
  let open Dpa_obs.Json in
  Alcotest.(check bool) "json" true
    (Table.json_rows columns rows
    = List
        [
          Obj
            [
              ("n", Int 7);
              ("x", Float (1.0 /. 3.0));
              ("s", Str "a b");
              ("ok", Bool true);
              ("o", Null);
            ];
          Obj
            [
              ("n", Int (-2));
              ("x", Float 118.019);
              ("s", Str "");
              ("ok", Bool false);
              ("o", Int 4);
            ];
        ])

(* [f ()]'s result and what it printed on stdout. *)
let capture_stdout f =
  let path = Filename.temp_file "dpa_harness" ".out" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let v =
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  (v, text)

let test_barchart_render () =
  let n = Dpa_sim.Node.create ~id:0 in
  Dpa_sim.Node.charge_local n 600;
  Dpa_sim.Node.charge_comm n 200;
  Dpa_sim.Node.wait_until n 1000;
  let b = Dpa_sim.Breakdown.of_nodes ~elapsed_ns:1000 [| n |] in
  let s =
    Barchart.render ~width:10
      [ Barchart.of_breakdown ~label:"x" ~speedup:2.0 b ]
  in
  Alcotest.(check bool) "has local" true (String.contains s '#');
  Alcotest.(check bool) "has comm" true (String.contains s '+');
  Alcotest.(check bool) "has idle" true (String.contains s '.')

let test_runconf_names () =
  Alcotest.(check string) "small" "small" Runconf.small.Runconf.name;
  Alcotest.(check string) "full" "full" Runconf.full.Runconf.name;
  Alcotest.(check bool) "full is paper input" true
    (Runconf.full.Runconf.bh_bodies = fst Paper.bh_input
    && Runconf.full.Runconf.fmm_p = snd Paper.fmm_input)

let test_paper_numbers () =
  Alcotest.(check (option (float 1e-9))) "bh dpa 64" (Some 2.63)
    (Paper.bh_dpa50_s 64);
  Alcotest.(check (option (float 1e-9))) "bh caching 1" (Some 115.15)
    (Paper.bh_caching_s 1);
  Alcotest.(check (option (float 1e-9))) "unknown" None (Paper.fmm_caching_s 16)

(* Run [i]'s modelled time, messages and DPA counters of a row. *)
let time i (r : _ Experiment.row) =
  Dpa_sim.Breakdown.elapsed_s r.Experiment.runs.(i).Experiment.breakdown

let msgs i (r : _ Experiment.row) =
  r.Experiment.runs.(i).Experiment.breakdown.Dpa_sim.Breakdown.msgs

let dpa i (r : _ Experiment.row) =
  Option.get r.Experiment.runs.(i).Experiment.dpa

(* The row labelled [name] of a sweep whose points are labelled pairs. *)
let find name rows = List.find (fun r -> fst r.Experiment.at = name) rows

(* Row [r]'s [key] cell as the table's JSON encodes it: the value a
   derived column prints. *)
let cell (s : _ Experiment.sweep) r key =
  match Table.json_rows s.Experiment.columns [ r ] with
  | Dpa_obs.Json.List [ row ] -> (
    match Dpa_obs.Json.member key row with
    | Some (Dpa_obs.Json.Float x) -> x
    | Some (Dpa_obs.Json.Int n) -> float_of_int n
    | _ -> Alcotest.fail ("no numeric cell " ^ key))
  | _ -> Alcotest.fail "one row"

let test_bh_times_monotone () =
  let rows = Experiment.(rows t2) tiny in
  Alcotest.(check int) "rows" 2 (List.length rows);
  let t1 = List.nth rows 0 and t4 = List.nth rows 1 in
  Alcotest.(check bool) "more procs is faster (dpa)" true (time 0 t4 < time 0 t1);
  let seq (r : _ Experiment.row) = r.Experiment.runs.(0).Experiment.seq_s in
  Alcotest.(check bool) "seq consistent" true
    (Float.abs (seq t1 -. seq t4) < 1e-9)

let test_fmm_times_monotone () =
  let rows = Experiment.(rows t3) tiny in
  let t1 = List.nth rows 0 and t4 = List.nth rows 1 in
  Alcotest.(check bool) "more procs is faster (dpa)" true (time 0 t4 < time 0 t1)

(* A phase already run is not run again: a second table that needs it
   (F4's BH run is T2's DPA run) gets the same value, also through a
   configuration listing fewer processor counts (as A2's footer asks for
   T2's phase); [~memo:false] recomputes equal runs. *)
let test_times_memoized () =
  let runs (r : _ Experiment.row) = r.Experiment.runs in
  let rows = Experiment.(rows t2) tiny in
  let again = Experiment.(rows t2) { tiny with Runconf.procs = [ 4 ] } in
  Alcotest.(check bool) "same run" true
    ((runs (List.nth rows 1)).(0) == (runs (List.hd again)).(0));
  List.iter2
    (fun t f ->
      Alcotest.(check bool) "f4's BH run is t2's DPA run" true
        ((runs f).(0) == (runs t).(0)))
    rows
    (Experiment.(rows f4) tiny);
  let fresh = Experiment.(rows ~memo:false t2) tiny in
  Alcotest.(check bool) "recomputed runs equal" true
    (List.for_all2 (fun a b -> runs a = runs b) fresh rows);
  Alcotest.(check bool) "recomputed runs are new" true
    (List.for_all2 (fun a b -> (runs a).(0) != (runs b).(0)) fresh rows);
  Alcotest.(check bool) "fmm runs kept" true
    (List.for_all2
       (fun a b -> Array.for_all2 ( == ) (runs a) (runs b))
       (Experiment.(rows t3) tiny)
       (Experiment.(rows t3) tiny))

let test_breakdown_ordering () =
  let bars = Experiment.(rows f1) tiny in
  Alcotest.(check int) "five variants" 5 (List.length bars);
  let time name = time 0 (find name bars) in
  (* The paper's headline ordering. *)
  Alcotest.(check bool) "dpa beats blocking" true
    (time "DPA(50)" < time "Blocking (base)");
  Alcotest.(check bool) "aggregation helps pipelining" true
    (time "Pipeline+agg" <= time "Pipeline")

let test_strip_sweep_bounds () =
  let points = Experiment.(rows ~points:[ 4; 64 ] f3) tiny in
  let p4 = List.nth points 0 and p64 = List.nth points 1 in
  Alcotest.(check bool) "outstanding grows with strip" true
    ((dpa 0 p4).Dpa.Dpa_stats.max_outstanding
    <= (dpa 0 p64).Dpa.Dpa_stats.max_outstanding)

let test_speedups_match_times () =
  let bh = Experiment.(rows t2) tiny in
  List.iter2
    (fun r (t : _ Experiment.row) ->
      Alcotest.(check (float 1e-9)) "bh speedup"
        (t.Experiment.runs.(0).Experiment.seq_s /. time 0 t)
        (cell Experiment.f4 r "bh_speedup"))
    (Experiment.(rows f4) tiny)
    bh

let test_thread_stats_rows () =
  let rows = Experiment.(rows t1) tiny in
  Alcotest.(check int) "five programs" 5 (List.length rows);
  let bh = List.hd rows in
  let name (r : _ Experiment.row) =
    let n, _, _ = r.Experiment.at in
    n
  in
  Alcotest.(check string) "first is BH" "Barnes-Hut" (name bh);
  Alcotest.(check bool) "dynamic threads counted" true
    (cell Experiment.t1 bh "dynamic_threads" > 0.);
  let ir = List.find (fun r -> name r = "pair_sum (IR)") rows in
  let _, sites, _ = ir.Experiment.at in
  Alcotest.(check int) "pair_sum static sites" 1 sites

let test_agg_sweep_msgs_decrease () =
  let points = Experiment.(rows ~points:[ 1; 64 ] a1) tiny in
  let p1 = List.nth points 0 and p64 = List.nth points 1 in
  Alcotest.(check bool) "fewer messages with aggregation" true
    (msgs 0 p64 < msgs 0 p1)

(* A1 through [Table.print], as its command runs it: one JSON row per
   printed row, and JSON that re-parses. *)
let test_agg_sweep_json () =
  let json, text =
    capture_stdout (fun () ->
        Table.print "A1" Experiment.a1.Experiment.columns
          Experiment.(rows ~points:[ 1; 16; 64 ] a1 tiny))
  in
  (* Title, header and rule above the rows; blank lines dropped. *)
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  let printed = List.length lines - 3 in
  Alcotest.(check int) "printed rows" 3 printed;
  let rows j =
    match Dpa_obs.Json.member "rows" j with
    | Some (Dpa_obs.Json.List rows) -> List.length rows
    | _ -> Alcotest.fail "no rows"
  in
  Alcotest.(check int) "json rows" printed (rows json);
  match Dpa_obs.Json.parse (Dpa_obs.Json.to_string json) with
  | Ok j ->
    Alcotest.(check int) "re-parsed rows" printed (rows j);
    Alcotest.(check bool) "title" true
      (Dpa_obs.Json.member "title" j = Some (Dpa_obs.Json.Str "A1"))
  | Error e -> Alcotest.fail e

let test_cache_sweep_hits_increase () =
  let points = Experiment.(rows ~points:[ 4; 4096 ] a2) tiny in
  let small = List.nth points 0 and big = List.nth points 1 in
  let cache (r : _ Experiment.row) =
    Option.get r.Experiment.runs.(0).Experiment.cache
  in
  Alcotest.(check bool) "bigger cache, more hits" true
    ((cache big).Dpa_baselines.Caching.hits
    >= (cache small).Dpa_baselines.Caching.hits);
  Alcotest.(check bool) "bigger cache, fewer misses" true
    ((cache big).Dpa_baselines.Caching.misses
    <= (cache small).Dpa_baselines.Caching.misses);
  Alcotest.(check bool) "bigger cache not slower" true
    (time 0 big <= time 0 small +. 1e-9)

let idle_frac (r : _ Experiment.row) =
  Dpa_sim.Breakdown.idle_frac r.Experiment.runs.(0).Experiment.breakdown

let test_distribution_sweep () =
  let points = Experiment.(rows a3) tiny in
  Alcotest.(check int) "two distributions" 2 (List.length points);
  let uniform = List.nth points 0 and clustered = List.nth points 1 in
  Alcotest.(check string) "uniform first" "uniform" (fst uniform.Experiment.at);
  Alcotest.(check bool) "clustered idles more (imbalance)" true
    (idle_frac clustered >= idle_frac uniform)

let test_partition_sweep () =
  let points = Experiment.(rows a4) tiny in
  Alcotest.(check int) "two partitions" 2 (List.length points);
  let block = List.nth points 0 and cz = List.nth points 1 in
  Alcotest.(check string) "block first" "equal-count blocks"
    (fst block.Experiment.at);
  (* Costzones balances work: it must not be meaningfully slower. *)
  Alcotest.(check bool) "costzones competitive" true
    (time 0 cz <= time 0 block *. 1.05)

let test_em3d_sweep () =
  let points = Experiment.(rows a5) tiny in
  Alcotest.(check int) "three runtimes" 3 (List.length points);
  let sums =
    List.map (fun p -> p.Experiment.runs.(0).Experiment.value) points
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "checksums agree" true
        (Float.abs (s -. List.hd sums) < 1e-9))
    sums

let test_latency_sweep_dpa_robust () =
  let points = Experiment.(rows ~points:[ 1.; 8. ] a6) tiny in
  let low = List.nth points 0 and high = List.nth points 1 in
  let gap p = time 1 p /. time 0 p in
  Alcotest.(check bool) "dpa advantage grows with latency" true
    (gap high > gap low)

let test_upward_sweep () =
  let points = Experiment.(rows a7) tiny in
  Alcotest.(check int) "four runtimes" 4 (List.length points);
  let dpa = List.hd points in
  let blocking = List.nth points 3 in
  Alcotest.(check bool) "combining uses fewer messages" true
    (msgs 0 dpa <= msgs 0 blocking)

let test_afmm_sweep () =
  let points = Experiment.(rows a8) tiny in
  Alcotest.(check int) "four rows" 4 (List.length points);
  let t name = time 0 (find name points) in
  Alcotest.(check bool) "adaptive dpa beats adaptive blocking" true
    (t "adaptive + DPA" <= t "adaptive + Blocking")

let test_hotspot () =
  let points = Experiment.(rows a10) tiny in
  Alcotest.(check int) "four configs" 4 (List.length points);
  let t name = time 0 (find name points) in
  Alcotest.(check bool) "serialization hurts pipeline more than dpa" true
    (t "DPA, serialized ingress" <= t "Pipeline, serialized ingress" +. 1e-9)

(* The fault matrices at small scale with 512 bodies: every cell
   bit-identical to its fault-free reference, every witness holding, and
   the [--json] encoding parseable. *)
let matrix_test (name, declare) =
  Alcotest.test_case name `Quick (fun () ->
      let m = declare { Runconf.small with Runconf.bh_bodies = 512 } in
      let cells = Matrix.run m in
      Alcotest.(check bool) "has cells" true (cells <> []);
      Alcotest.(check (list string)) "no failures" [] (Matrix.failures m cells);
      let json = Dpa_obs.Json.to_string (Matrix.json m cells) in
      Alcotest.(check bool) "json parses" true
        (Result.is_ok (Dpa_obs.Json.parse json)))

(* A faulted run whose result differs from the reference must be reported
   by matrix, workload, config and schedule; a witness that does not hold
   is reported by name. *)
let test_matrix_divergence () =
  let w =
    Matrix.workload "toy"
      [ ("cfg", [ Matrix.fixed "off" "off"; Matrix.fixed "lossy" "drop=0.5" ]) ]
      (fun ~config:_ plan ->
        let engine = Matrix.engine ~nodes:2 plan in
        {
          Matrix.result = Option.is_none (Dpa_sim.Engine.fault engine);
          engine;
          time_s = 0.;
          stats = Dpa.Dpa_stats.create ();
          extra = [];
        })
  in
  let m =
    {
      Matrix.name = "toy-matrix";
      title = "toy";
      seed = 1;
      workloads = [ w ];
      columns = Matrix.[ schedule "SCHEDULE"; result "RESULT" ];
      summary = None;
      witnesses = [ ("crashes", Matrix.nonzero "crashes") ];
    }
  in
  let cells = Matrix.run m in
  Alcotest.(check (list bool)) "off identical, lossy diverged" [ true; false ]
    (List.map (fun (c : Matrix.cell) -> c.bit_identical) cells);
  Alcotest.(check (list string)) "failures"
    [
      "toy-matrix: workload \"toy\", config \"cfg\", schedule \"lossy\" \
       diverged from the fault-free reference";
      "toy-matrix: witness failed: crashes";
    ]
    (Matrix.failures m cells)

let suites =
  [
    ( "harness.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "formats" `Quick test_table_formats;
        Alcotest.test_case "typed columns" `Quick test_table_columns;
      ] );
    ( "harness.barchart",
      [ Alcotest.test_case "render" `Quick test_barchart_render ] );
    ( "harness.runconf",
      [ Alcotest.test_case "presets" `Quick test_runconf_names ] );
    ( "harness.paper",
      [ Alcotest.test_case "recorded numbers" `Quick test_paper_numbers ] );
    ( "harness.experiment",
      [
        Alcotest.test_case "bh times monotone" `Quick test_bh_times_monotone;
        Alcotest.test_case "fmm times monotone" `Quick test_fmm_times_monotone;
        Alcotest.test_case "times memoized" `Quick test_times_memoized;
        Alcotest.test_case "breakdown ordering" `Quick test_breakdown_ordering;
        Alcotest.test_case "strip sweep bounds" `Quick test_strip_sweep_bounds;
        Alcotest.test_case "speedups match times" `Quick
          test_speedups_match_times;
        Alcotest.test_case "thread stats rows" `Quick test_thread_stats_rows;
        Alcotest.test_case "agg sweep" `Quick test_agg_sweep_msgs_decrease;
        Alcotest.test_case "agg sweep json" `Quick test_agg_sweep_json;
        Alcotest.test_case "cache sweep" `Quick test_cache_sweep_hits_increase;
        Alcotest.test_case "distribution sweep" `Quick test_distribution_sweep;
        Alcotest.test_case "partition sweep" `Quick test_partition_sweep;
        Alcotest.test_case "em3d sweep" `Quick test_em3d_sweep;
        Alcotest.test_case "latency sweep" `Quick test_latency_sweep_dpa_robust;
        Alcotest.test_case "upward sweep" `Quick test_upward_sweep;
        Alcotest.test_case "afmm sweep" `Quick test_afmm_sweep;
        Alcotest.test_case "hotspot" `Quick test_hotspot;
      ] );
    ( "harness.matrix",
      List.map matrix_test
        Experiment.
          [
            ("a11 chaos sweep", chaos_sweep);
            ("a12b adaptive rto", adaptive_rto_sweep);
            ("a13 crash matrix", crash_matrix);
            ("a14 integrity matrix", integrity_matrix);
            ("a15 optimality matrix", optimality_matrix);
          ]
      @ [
          Alcotest.test_case "divergence names the cell" `Quick
            test_matrix_divergence;
        ] );
  ]
