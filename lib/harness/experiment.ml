open Dpa_sim
open Table

(* The DPA variant an experiment should run: the scale's static strip, or
   the adaptive controller seeded with it when [--strip auto] set
   [Runconf.strip_auto]. *)
let dpa_variant (conf : Runconf.t) ~strip =
  let route =
    if conf.Runconf.route_all then Dpa.Config.All_dsts else Dpa.Config.Off
  in
  if conf.Runconf.strip_auto then
    Dpa_baselines.Variant.Dpa (Dpa.Config.dpa_auto ~strip_size:strip ~route ())
  else Dpa_baselines.Variant.Dpa (Dpa.Config.dpa ~strip_size:strip ~route ())

(* A fraction as a percentage with [digits] decimals. *)
let pct digits f = Printf.sprintf "%.*f" digits (100. *. f)

let one_decimal = Printf.sprintf "%.1f"

(* ------------------------------------------------------------------ T2/T3 *)

type timing = {
  procs : int;
  dpa_s : float;
  caching_s : float;
  seq_s : float;
  paper_dpa_s : float option;
  paper_caching_s : float option;
}

let bh_run (conf : Runconf.t) ~procs variant =
  Dpa_bh.Bh_run.simulate ~repartition:conf.Runconf.repartition ~nnodes:procs
    ~nbodies:conf.Runconf.bh_bodies ~nsteps:conf.Runconf.bh_steps variant

let bh_seq_s (conf : Runconf.t) (r : Dpa_bh.Bh_run.sim_result) =
  float_of_int
    (conf.Runconf.bh_steps
    * Dpa_bh.Bh_run.sequential_ns ~params:Dpa_bh.Bh_force.default_params
        r.Dpa_bh.Bh_run.seq_counts)
  *. 1e-9

(* One T2/T3 row per processor count from a DPA and a caching [run] of a
   workload, with the paper's numbers at the full scale. Unless [memo] is
   false, rows are kept in [rows] for the life of the process, keyed by the
   configuration (its processor list aside) and the processor count, so
   T2, F4 and A2's footer share one run of each phase. *)
let times ~memo ~rows (conf : Runconf.t) ~run ~elapsed ~seq_s ~paper_dpa
    ~paper_caching =
  let full = conf.Runconf.name = "full" in
  let row procs =
    let dpa = run ~procs (dpa_variant conf ~strip:conf.Runconf.bh_strip) in
    let caching =
      run ~procs
        (Dpa_baselines.Variant.Caching
           { capacity = conf.Runconf.cache_capacity })
    in
    {
      procs;
      dpa_s = elapsed dpa;
      caching_s = elapsed caching;
      seq_s = seq_s dpa;
      paper_dpa_s = (if full then paper_dpa procs else None);
      paper_caching_s = (if full then paper_caching procs else None);
    }
  in
  let memoized procs =
    let key = ({ conf with Runconf.procs = [] }, procs) in
    match Hashtbl.find_opt rows key with
    | Some r -> r
    | None ->
      let r = row procs in
      Hashtbl.add rows key r;
      r
  in
  List.map (if memo then memoized else row) conf.Runconf.procs

let bh_rows = Hashtbl.create 8

let bh_times ?(memo = true) conf =
  times ~memo ~rows:bh_rows conf ~run:(bh_run conf) ~seq_s:(bh_seq_s conf)
    ~elapsed:(fun r -> Breakdown.elapsed_s r.Dpa_bh.Bh_run.total)
    ~paper_dpa:Paper.bh_dpa50_s ~paper_caching:Paper.bh_caching_s

let fmm_params (conf : Runconf.t) =
  { Dpa_fmm.Fmm_force.default_params with Dpa_fmm.Fmm_force.p = conf.Runconf.fmm_p }

let fmm_run (conf : Runconf.t) ~procs variant =
  Dpa_fmm.Fmm_run.run ~params:(fmm_params conf) ~nnodes:procs
    ~nparticles:conf.Runconf.fmm_particles variant

let fmm_seq_s (conf : Runconf.t) (r : Dpa_fmm.Fmm_run.run_result) =
  float_of_int
    (Dpa_fmm.Fmm_run.sequential_ns ~params:(fmm_params conf)
       r.Dpa_fmm.Fmm_run.seq_counts)
  *. 1e-9

let fmm_rows = Hashtbl.create 8

let fmm_times ?(memo = true) conf =
  times ~memo ~rows:fmm_rows conf ~run:(fmm_run conf) ~seq_s:(fmm_seq_s conf)
    ~elapsed:(fun r ->
      Breakdown.elapsed_s r.Dpa_fmm.Fmm_run.phase.Dpa_fmm.Fmm_run.breakdown)
    ~paper_dpa:Paper.fmm_dpa50_s ~paper_caching:Paper.fmm_caching_s

let times_columns : timing Table.column list =
  [
    column "PROCS" "procs" int (fun r -> r.procs);
    column "DPA(s)" "dpa_s" (float sec) (fun r -> r.dpa_s);
    column "Caching(s)" "caching_s" (float sec) (fun r -> r.caching_s);
    column "DPA speedup" "dpa_speedup" (float speedup) (fun r ->
        r.seq_s /. r.dpa_s);
    column "Caching speedup" "caching_speedup" (float speedup) (fun r ->
        r.seq_s /. r.caching_s);
    column "paper DPA" "paper_dpa_s" (option (float sec)) (fun r ->
        r.paper_dpa_s);
    column "paper Caching" "paper_caching_s" (option (float sec)) (fun r ->
        r.paper_caching_s);
  ]

(* ------------------------------------------------------------------ F1/F2 *)

type breakdown_bar = {
  variant : string;
  breakdown : Breakdown.t;
  speedup : float;
}

let breakdown_variants (conf : Runconf.t) ~strip =
  let dpa_label =
    if conf.Runconf.strip_auto then "DPA(auto)"
    else Printf.sprintf "DPA(%d)" strip
  in
  [
    ("Blocking (base)", Dpa_baselines.Variant.Blocking);
    ( "Caching",
      Dpa_baselines.Variant.Caching { capacity = conf.Runconf.cache_capacity }
    );
    ( "Pipeline",
      Dpa_baselines.Variant.Dpa (Dpa.Config.pipeline_only ~strip_size:strip ()) );
    ( "Pipeline+agg",
      Dpa_baselines.Variant.Dpa
        (Dpa.Config.pipeline_aggregate ~strip_size:strip ()) );
    (dpa_label, dpa_variant conf ~strip);
  ]

let bh_breakdown (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  List.map
    (fun (name, variant) ->
      let r = bh_run conf ~procs variant in
      {
        variant = name;
        breakdown = r.Dpa_bh.Bh_run.total;
        speedup = bh_seq_s conf r /. Breakdown.elapsed_s r.Dpa_bh.Bh_run.total;
      })
    (breakdown_variants conf ~strip:conf.Runconf.bh_strip)

let fmm_breakdown (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  List.map
    (fun (name, variant) ->
      let r = fmm_run conf ~procs variant in
      let b = r.Dpa_fmm.Fmm_run.phase.Dpa_fmm.Fmm_run.breakdown in
      {
        variant = name;
        breakdown = b;
        speedup = fmm_seq_s conf r /. Breakdown.elapsed_s b;
      })
    (breakdown_variants conf ~strip:conf.Runconf.fmm_strip)

(* The bars as rows, for the JSON only: the figure prints as bars. *)
let breakdown_columns : breakdown_bar Table.column list =
  let frac header key f =
    column header key (float (pct 1)) (fun b -> f b.breakdown)
  in
  [
    column "VARIANT" "variant" string (fun b -> b.variant);
    column "TIME(s)" "time_s" (float sec) (fun b ->
        Breakdown.elapsed_s b.breakdown);
    frac "LOCAL %" "local_frac" Breakdown.local_frac;
    frac "COMM %" "comm_frac" Breakdown.comm_frac;
    frac "IDLE %" "idle_frac" Breakdown.idle_frac;
    column "MESSAGES" "msgs" int (fun b -> b.breakdown.Breakdown.msgs);
    column "BYTES" "bytes" int (fun b -> b.breakdown.Breakdown.bytes);
    column "SPEEDUP" "speedup" (float speedup) (fun b -> b.speedup);
  ]

let print_breakdown ~title bars =
  Printf.printf "%s\n" title;
  Barchart.print
    (List.map
       (fun b ->
         Barchart.of_breakdown ~label:b.variant ~speedup:b.speedup b.breakdown)
       bars);
  print_newline ();
  Table.json title breakdown_columns bars

(* --------------------------------------------------------------------- F3 *)

type strip_point = {
  strip : int;
  bh_s : float;
  fmm_s : float;
  bh_outstanding : int;
  bh_align_peak : int;
  bh_max_batch : int;
}

let default_strips = [ 10; 25; 50; 100; 200; 300; 500; 1000 ]

let strip_sweep ?(strips = default_strips) (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  List.map
    (fun strip ->
      let bh =
        bh_run conf ~procs (Dpa_baselines.Variant.dpa ~strip_size:strip ())
      in
      let fmm =
        fmm_run conf ~procs (Dpa_baselines.Variant.dpa ~strip_size:strip ())
      in
      let stats = Option.get bh.Dpa_bh.Bh_run.last.Dpa_bh.Bh_run.dpa_stats in
      {
        strip;
        bh_s = Breakdown.elapsed_s bh.Dpa_bh.Bh_run.total;
        fmm_s =
          Breakdown.elapsed_s
            fmm.Dpa_fmm.Fmm_run.phase.Dpa_fmm.Fmm_run.breakdown;
        bh_outstanding = stats.Dpa.Dpa_stats.max_outstanding;
        bh_align_peak = stats.Dpa.Dpa_stats.align_peak;
        bh_max_batch = stats.Dpa.Dpa_stats.max_batch;
      })
    strips

let strip_columns : strip_point Table.column list =
  [
    column "STRIP" "strip" int (fun p -> p.strip);
    column "BH(s)" "bh_s" (float sec) (fun p -> p.bh_s);
    column "FMM(s)" "fmm_s" (float sec) (fun p -> p.fmm_s);
    column "BH max outstanding" "bh_max_outstanding" int (fun p ->
        p.bh_outstanding);
    column "BH peak D" "bh_align_peak" int (fun p -> p.bh_align_peak);
    column "BH max batch" "bh_max_batch" int (fun p -> p.bh_max_batch);
  ]

(* --------------------------------------------------------------------- F4 *)

type speedup_row = { procs : int; bh_speedup : float; fmm_speedup : float }

let speedups ~bh ~fmm =
  List.map
    (fun (b : timing) ->
      let f = List.find (fun (f : timing) -> f.procs = b.procs) fmm in
      {
        procs = b.procs;
        bh_speedup = b.seq_s /. b.dpa_s;
        fmm_speedup = f.seq_s /. f.dpa_s;
      })
    bh

let speedup_columns : speedup_row Table.column list =
  [
    column "PROCS" "procs" int (fun r -> r.procs);
    column "BH speedup" "bh_speedup" (float speedup) (fun r -> r.bh_speedup);
    column "FMM speedup" "fmm_speedup" (float speedup) (fun r -> r.fmm_speedup);
  ]

(* --------------------------------------------------------------------- T1 *)

type stats_row = {
  name : string;
  static_sites : int;
  dynamic_threads : int;
  max_outstanding : int;
  align_peak : int;
  max_batch : int;
  request_msgs : int;
}

(* Static thread-creation sites in the hand-partitioned phases: the root
   read and the child-cell read for Barnes-Hut; the V-list multipole read
   and the U-list particle read for FMM. These constants mirror what
   Partition.analyze reports for the equivalent IR programs. *)
let bh_static_sites = 2
let fmm_static_sites = 2

let of_dpa_stats ~name ~static_sites (s : Dpa.Dpa_stats.t) =
  {
    name;
    static_sites;
    dynamic_threads = s.Dpa.Dpa_stats.spawns + s.Dpa.Dpa_stats.merge_hits;
    max_outstanding = s.Dpa.Dpa_stats.max_outstanding;
    align_peak = s.Dpa.Dpa_stats.align_peak;
    max_batch = s.Dpa.Dpa_stats.max_batch;
    request_msgs = s.Dpa.Dpa_stats.request_msgs;
  }

let thread_stats (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  let bh =
    bh_run conf ~procs (dpa_variant conf ~strip:conf.Runconf.bh_strip)
  in
  let fmm =
    fmm_run conf ~procs
      (dpa_variant conf ~strip:conf.Runconf.fmm_strip)
  in
  let compiler_rows =
    List.map
      (fun (name, program, entry) ->
        let info =
          Dpa_compiler.Partition.analyze program
            (Dpa_compiler.Ast.func program entry)
        in
        {
          name;
          static_sites = List.length info.Dpa_compiler.Partition.spawn_sites;
          dynamic_threads = 0;
          max_outstanding = 0;
          align_peak = 0;
          max_batch = 0;
          request_msgs = 0;
        })
      [
        ("list_sum (IR)", Dpa_compiler.Programs.list_sum, "sum_list");
        ("tree_sum (IR)", Dpa_compiler.Programs.tree_sum, "sum_tree");
        ("pair_sum (IR)", Dpa_compiler.Programs.pair_sum, "sum_pair");
      ]
  in
  of_dpa_stats ~name:"Barnes-Hut" ~static_sites:bh_static_sites
    (Option.get bh.Dpa_bh.Bh_run.last.Dpa_bh.Bh_run.dpa_stats)
  :: of_dpa_stats ~name:"FMM" ~static_sites:fmm_static_sites
       (Option.get fmm.Dpa_fmm.Fmm_run.phase.Dpa_fmm.Fmm_run.dpa_stats)
  :: compiler_rows

let stats_columns : stats_row Table.column list =
  [
    column "PROGRAM" "program" string (fun r -> r.name);
    column "STATIC SITES" "static_sites" int (fun r -> r.static_sites);
    column "DYN THREADS" "dynamic_threads" int (fun r -> r.dynamic_threads);
    column "MAX OUTSTANDING" "max_outstanding" int (fun r -> r.max_outstanding);
    column "PEAK D" "align_peak" int (fun r -> r.align_peak);
    column "MAX BATCH" "max_batch" int (fun r -> r.max_batch);
    column "REQ MSGS" "request_msgs" int (fun r -> r.request_msgs);
  ]

(* --------------------------------------------------------------------- A1 *)

type agg_point = { agg : int; time_s : float; msgs : int; max_batch : int }

let agg_sweep ?(aggs = [ 1; 4; 16; 64; 256 ]) (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  List.map
    (fun agg ->
      let r =
        bh_run conf ~procs
          (Dpa_baselines.Variant.Dpa
             (Dpa.Config.dpa ~strip_size:conf.Runconf.bh_strip ~agg_max:agg ()))
      in
      let stats = Option.get r.Dpa_bh.Bh_run.last.Dpa_bh.Bh_run.dpa_stats in
      {
        agg;
        time_s = Breakdown.elapsed_s r.Dpa_bh.Bh_run.total;
        msgs = r.Dpa_bh.Bh_run.total.Breakdown.msgs;
        max_batch = stats.Dpa.Dpa_stats.max_batch;
      })
    aggs

let agg_columns : agg_point Table.column list =
  [
    column "AGG MAX" "agg_max" int (fun p -> p.agg);
    column "TIME(s)" "time_s" (float sec) (fun p -> p.time_s);
    column "MESSAGES" "msgs" int (fun p -> p.msgs);
    column "MAX BATCH" "max_batch" int (fun p -> p.max_batch);
  ]

(* --------------------------------------------------------------------- A2 *)

type cache_point = {
  capacity : int;
  time_s : float;
  hits : int;
  misses : int;
  evictions : int;
}

let cache_sweep ?(capacities = [ 64; 256; 1024; 4096; 16384 ]) (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  List.map
    (fun capacity ->
      let r = bh_run conf ~procs (Dpa_baselines.Variant.Caching { capacity }) in
      let stats = Option.get r.Dpa_bh.Bh_run.last.Dpa_bh.Bh_run.cache_stats in
      {
        capacity;
        time_s = Breakdown.elapsed_s r.Dpa_bh.Bh_run.total;
        hits = stats.Dpa_baselines.Caching.hits;
        misses = stats.Dpa_baselines.Caching.misses;
        evictions = stats.Dpa_baselines.Caching.evictions;
      })
    capacities

let cache_columns : cache_point Table.column list =
  [
    column "CAPACITY" "capacity" int (fun p -> p.capacity);
    column "TIME(s)" "time_s" (float sec) (fun p -> p.time_s);
    column "HITS" "hits" int (fun p -> p.hits);
    column "MISSES" "misses" int (fun p -> p.misses);
    column "EVICTIONS" "evictions" int (fun p -> p.evictions);
  ]

(* --------------------------------------------------------------------- A3 *)

type dist_point = {
  dist_name : string;
  dist_time_s : float;
  dist_idle_frac : float;
  dist_msgs : int;
}

let distribution_sweep (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  List.map
    (fun (dist_name, distribution) ->
      let r =
        Dpa_fmm.Fmm_run.run ~params:(fmm_params conf) ~nnodes:procs
          ~nparticles:conf.Runconf.fmm_particles ~distribution
          (dpa_variant conf ~strip:conf.Runconf.fmm_strip)
      in
      let b = r.Dpa_fmm.Fmm_run.phase.Dpa_fmm.Fmm_run.breakdown in
      {
        dist_name;
        dist_time_s = Breakdown.elapsed_s b;
        dist_idle_frac = Breakdown.idle_frac b;
        dist_msgs = b.Breakdown.msgs;
      })
    [ ("uniform", `Uniform); ("clustered(8)", `Clustered 8) ]

let dist_columns : dist_point Table.column list =
  [
    column "DISTRIBUTION" "distribution" string (fun p -> p.dist_name);
    column "TIME(s)" "time_s" (float sec) (fun p -> p.dist_time_s);
    column "IDLE %" "idle_frac" (float (pct 0)) (fun p -> p.dist_idle_frac);
    column "MESSAGES" "msgs" int (fun p -> p.dist_msgs);
  ]

(* --------------------------------------------------------------------- A4 *)

type partition_point = {
  part_name : string;
  part_time_s : float;
  part_idle_frac : float;
}

let partition_sweep (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  List.map
    (fun (part_name, partition) ->
      let r =
        Dpa_bh.Bh_run.simulate ~nnodes:procs ~nbodies:conf.Runconf.bh_bodies
          ~nsteps:conf.Runconf.bh_steps ~partition
          (dpa_variant conf ~strip:conf.Runconf.bh_strip)
      in
      {
        part_name;
        part_time_s = Breakdown.elapsed_s r.Dpa_bh.Bh_run.total;
        part_idle_frac = Breakdown.idle_frac r.Dpa_bh.Bh_run.total;
      })
    [ ("equal-count blocks", `Block); ("costzones", `Costzones) ]

let partition_columns : partition_point Table.column list =
  [
    column "PARTITION" "partition" string (fun p -> p.part_name);
    column "TIME(s)" "time_s" (float sec) (fun p -> p.part_time_s);
    column "IDLE %" "idle_frac" (float (pct 0)) (fun p -> p.part_idle_frac);
  ]

(* --------------------------------------------------------------------- A5 *)

type em3d_point = {
  em3d_variant : string;
  em3d_time_s : float;
  em3d_msgs : int;
  em3d_checksum : float;
}

let em3d_sweep (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  let per_node = max 8 (conf.Runconf.bh_bodies / procs / 4) in
  let run (name, variant) =
    (* The original EM3D defaults: degree 20, 10-40% remote dependencies. *)
    let g =
      Dpa_compiler.Em3d.build ~nnodes:procs ~e_per_node:per_node
        ~h_per_node:per_node ~degree:20 ~remote_frac:0.25 ~seed:29
    in
    let sum = ref 0. in
    let accum v = sum := !sum +. v in
    let engine = Engine.create (Machine.t3d ~nodes:procs) in
    let b, _ =
      Dpa_baselines.Variant.run_phase variant ~label:"em3d" ~engine
        ~heaps:g.Dpa_compiler.Em3d.heaps
        { items = (fun a -> Dpa_compiler.Em3d.items a g ~accum) }
    in
    {
      em3d_variant = name;
      em3d_time_s = Breakdown.elapsed_s b;
      em3d_msgs = b.Breakdown.msgs;
      em3d_checksum = !sum;
    }
  in
  List.map run
    [
      ( "DPA(50)",
        Dpa_baselines.Variant.dpa ~strip_size:conf.Runconf.bh_strip () );
      ( "Caching",
        Dpa_baselines.Variant.Caching { capacity = conf.Runconf.cache_capacity }
      );
      ("Blocking", Dpa_baselines.Variant.Blocking);
    ]

let em3d_columns : em3d_point Table.column list =
  [
    column "RUNTIME" "runtime" string (fun p -> p.em3d_variant);
    column "TIME(s)" "time_s" (float sec) (fun p -> p.em3d_time_s);
    column "MESSAGES" "msgs" int (fun p -> p.em3d_msgs);
    column "CHECKSUM" "checksum" (float (Printf.sprintf "%.6f")) (fun p ->
        p.em3d_checksum);
  ]

(* --------------------------------------------------------------------- A6 *)

type latency_point = {
  lat_scale : float;
  lat_dpa_s : float;
  lat_blocking_s : float;
}

let latency_sweep ?(scales = [ 0.5; 1.; 2.; 4.; 8. ]) (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  List.map
    (fun scale ->
      let base = Machine.t3d ~nodes:procs in
      let machine =
        Machine.make ~nodes:procs
          ~send_overhead_ns:
            (int_of_float (float_of_int base.Machine.send_overhead_ns *. scale))
          ~recv_overhead_ns:
            (int_of_float (float_of_int base.Machine.recv_overhead_ns *. scale))
          ~wire_latency_ns:
            (int_of_float (float_of_int base.Machine.wire_latency_ns *. scale))
          ()
      in
      let time variant =
        let r =
          Dpa_bh.Bh_run.simulate ~machine ~nnodes:procs
            ~nbodies:conf.Runconf.bh_bodies ~nsteps:1 variant
        in
        Breakdown.elapsed_s r.Dpa_bh.Bh_run.total
      in
      {
        lat_scale = scale;
        lat_dpa_s =
          time (dpa_variant conf ~strip:conf.Runconf.bh_strip);
        lat_blocking_s = time Dpa_baselines.Variant.Blocking;
      })
    scales

let latency_columns : latency_point Table.column list =
  [
    column "LATENCY x" "latency_scale" (float one_decimal) (fun p ->
        p.lat_scale);
    column "DPA(s)" "dpa_s" (float sec) (fun p -> p.lat_dpa_s);
    column "Blocking(s)" "blocking_s" (float sec) (fun p -> p.lat_blocking_s);
    column "Blocking/DPA" "blocking_over_dpa" (float one_decimal) (fun p ->
        p.lat_blocking_s /. p.lat_dpa_s);
  ]

(* --------------------------------------------------------------------- A7 *)

type upward_point = {
  up_variant : string;
  up_time_s : float;
  up_msgs : int;
  up_combined : int;
}

let upward_sweep (conf : Runconf.t) =
  (* An odd node count: power-of-two Morton blocks never split sibling
     groups on a complete quadtree, which would make every M2M local. *)
  let procs = max 3 (conf.Runconf.breakdown_procs - 1) in
  let params = fmm_params conf in
  let parts =
    Dpa_fmm.Particle2d.uniform ~n:conf.Runconf.fmm_particles ~seed:23
  in
  let tree = Dpa_fmm.Quadtree.build parts in
  List.map
    (fun (name, variant) ->
      let global =
        Dpa_fmm.Fmm_global.distribute_empty ~p:params.Dpa_fmm.Fmm_force.p tree
          ~nnodes:procs
      in
      let engine = Engine.create (Machine.t3d ~nodes:procs) in
      let r = Dpa_fmm.Fmm_upward.run ~engine ~global ~params variant in
      {
        up_variant = name;
        up_time_s = Breakdown.elapsed_s r.Dpa_fmm.Fmm_upward.breakdown;
        up_msgs = r.Dpa_fmm.Fmm_upward.breakdown.Breakdown.msgs;
        up_combined =
          (match r.Dpa_fmm.Fmm_upward.dpa_stats with
          | Some s -> s.Dpa.Dpa_stats.updates_combined
          | None -> 0);
      })
    [
      ("DPA (combining)", dpa_variant conf ~strip:conf.Runconf.fmm_strip);
      ( "Pipeline (no combine)",
        Dpa_baselines.Variant.Prefetch { strip_size = conf.Runconf.fmm_strip } );
      ("Caching (put/update)", Dpa_baselines.Variant.Caching { capacity = conf.Runconf.cache_capacity });
      ("Blocking", Dpa_baselines.Variant.Blocking);
    ]

let upward_columns : upward_point Table.column list =
  [
    column "RUNTIME" "runtime" string (fun p -> p.up_variant);
    column "TIME(s)" "time_s" (float sec) (fun p -> p.up_time_s);
    column "MESSAGES" "msgs" int (fun p -> p.up_msgs);
    column "UPDATES COMBINED" "updates_combined" int (fun p -> p.up_combined);
  ]

(* --------------------------------------------------------------------- A8 *)

type afmm_point = {
  af_variant : string;
  af_time_s : float;
  af_msgs : int;
}

let afmm_sweep (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  let params = fmm_params conf in
  let n = conf.Runconf.fmm_particles in
  let adaptive variant name =
    let b, _, _ =
      Dpa_fmm.Afmm_force.run ~params ~nnodes:procs ~nparticles:n
        ~distribution:(`Clustered 8) ~seed:23 variant
    in
    { af_variant = name; af_time_s = Breakdown.elapsed_s b; af_msgs = b.Breakdown.msgs }
  in
  let uniform =
    let r =
      Dpa_fmm.Fmm_run.run ~params ~nnodes:procs ~nparticles:n
        ~distribution:(`Clustered 8) ~seed:23
        (dpa_variant conf ~strip:conf.Runconf.fmm_strip)
    in
    let b = r.Dpa_fmm.Fmm_run.phase.Dpa_fmm.Fmm_run.breakdown in
    {
      af_variant = "complete tree + DPA";
      af_time_s = Breakdown.elapsed_s b;
      af_msgs = b.Breakdown.msgs;
    }
  in
  [
    adaptive
      (dpa_variant conf ~strip:conf.Runconf.fmm_strip)
      "adaptive + DPA";
    adaptive
      (Dpa_baselines.Variant.Caching { capacity = conf.Runconf.cache_capacity })
      "adaptive + Caching";
    adaptive Dpa_baselines.Variant.Blocking "adaptive + Blocking";
    uniform;
  ]

let afmm_columns : afmm_point Table.column list =
  [
    column "CONFIGURATION" "configuration" string (fun p -> p.af_variant);
    column "TIME(s)" "time_s" (float sec) (fun p -> p.af_time_s);
    column "MESSAGES" "msgs" int (fun p -> p.af_msgs);
  ]

(* --------------------------------------------------------------------- A9 *)

type cache_locality_point = {
  cl_lines : int;
  cl_random_miss : float;
  cl_tree_miss : float;
}

let cache_locality ?(lines = [ 128; 512; 2048 ]) (conf : Runconf.t) =
  let bodies = Dpa_bh.Plummer.generate ~n:conf.Runconf.bh_bodies ~seed:17 in
  let tree = Dpa_bh.Octree.build bodies in
  let tree_order = Dpa_bh.Octree.dfs_body_order tree in
  let random_order =
    (* Deterministic shuffle. *)
    let rng = Dpa_util.Rng.create ~seed:99 in
    let a = Array.copy tree_order in
    for i = Array.length a - 1 downto 1 do
      let j = Dpa_util.Rng.int rng (i + 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    a
  in
  List.map
    (fun nlines ->
      let miss order =
        let c = Dcache.create ~lines:nlines () in
        Array.iter
          (fun bid ->
            Dpa_bh.Bh_seq.visit_trace tree bodies.(bid) (fun ci ->
                ignore (Dcache.access c ci)))
          order;
        Dcache.miss_rate c
      in
      {
        cl_lines = nlines;
        cl_random_miss = miss random_order;
        cl_tree_miss = miss tree_order;
      })
    lines

let locality_columns : cache_locality_point Table.column list =
  [
    column "CACHE LINES" "cache_lines" int (fun p -> p.cl_lines);
    column "RANDOM ORDER MISS%" "random_miss_frac" (float (pct 2)) (fun p ->
        p.cl_random_miss);
    column "TREE ORDER MISS%" "tree_miss_frac" (float (pct 2)) (fun p ->
        p.cl_tree_miss);
  ]

(* -------------------------------------------------------------------- A10 *)

type hotspot_point = {
  hs_config : string;
  hs_time_s : float;
  hs_msgs : int;
}

let hotspot (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  let nobjs = 256 and items = 64 and reads = 8 in
  let run ~ingress ~config name =
    let machine = Machine.make ~ingress_serialized:ingress ~nodes:procs () in
    let engine = Engine.create machine in
    let heaps = Dpa_heap.Heap.cluster ~nnodes:procs in
    let ptrs =
      Array.init nobjs (fun _ ->
          Dpa_heap.Heap.alloc heaps.(0) ~floats:(Array.make 128 1.) ~ptrs:[||])
    in
    let items_of node =
      if node = 0 then [||]
      else
        Array.init items (fun item ->
            fun ctx ->
              for r = 0 to reads - 1 do
                let h = (node * 7919) + (item * 104729) + (r * 1299721) in
                Dpa.Runtime.read ctx ptrs.(h mod nobjs) (fun ctx _ ->
                    Dpa.Runtime.charge ctx 2_000)
              done)
    in
    let b, _ =
      Dpa.Runtime.run_phase_labeled ~label:"hotspot" ~engine ~heaps ~config
        ~items:items_of
    in
    {
      hs_config = name;
      hs_time_s = Breakdown.elapsed_s b;
      hs_msgs = b.Breakdown.msgs;
    }
  in
  [
    run ~ingress:false ~config:(Dpa.Config.dpa ()) "DPA, contention-free";
    run ~ingress:true ~config:(Dpa.Config.dpa ()) "DPA, serialized ingress";
    run ~ingress:false
      ~config:(Dpa.Config.pipeline_only ())
      "Pipeline, contention-free";
    run ~ingress:true
      ~config:(Dpa.Config.pipeline_only ())
      "Pipeline, serialized ingress";
  ]

let hotspot_columns : hotspot_point Table.column list =
  [
    column "CONFIGURATION" "configuration" string (fun p -> p.hs_config);
    column "TIME(s)" "time_s" (float sec) (fun p -> p.hs_time_s);
    column "MESSAGES" "msgs" int (fun p -> p.hs_msgs);
  ]

(* -------------------------------------------------------------------- A11 *)

(* Workload runners of the fault matrices (A11-A15): each runs one phase
   under the plan the driver hands it and returns the result the cell is
   checked on. *)

let matrix_config = "dpa"

let bh_force ?adaptive_rto (conf : Runconf.t) plan =
  let procs = conf.Runconf.breakdown_procs in
  let bodies = Dpa_bh.Plummer.generate ~n:conf.Runconf.bh_bodies ~seed:17 in
  let octree = Dpa_bh.Octree.build bodies in
  let tree = Dpa_bh.Bh_global.distribute octree ~nnodes:procs in
  let engine = Matrix.engine ?adaptive_rto ~nodes:procs plan in
  let r =
    Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
      ~params:Dpa_bh.Bh_force.default_params
      (dpa_variant conf ~strip:conf.Runconf.bh_strip)
  in
  {
    Matrix.result = r.Dpa_bh.Bh_run.accs;
    engine;
    time_s = Breakdown.elapsed_s r.Dpa_bh.Bh_run.breakdown;
    stats = Option.get r.Dpa_bh.Bh_run.dpa_stats;
    extra = [];
  }

let bh_force_name (conf : Runconf.t) =
  Printf.sprintf "BH force (%d nodes)" conf.Runconf.breakdown_procs

(* The fraction of sent bytes that were not protocol overhead. *)
let goodput c =
  let sent = Matrix.counter c "bytes_sent" in
  if sent = 0 then 1.
  else
    float_of_int (sent - Matrix.counter c "overhead_bytes")
    /. float_of_int sent

let chaos_sweep (conf : Runconf.t) =
  let specs = [ "off"; "drop=0.01"; "drop=0.05"; "drop=0.10"; "heavy" ] in
  {
    Matrix.name = "a11";
    title =
      Printf.sprintf
        "A11: chaos sweep — BH force phase under injected faults (%d nodes)"
        conf.Runconf.breakdown_procs;
    seed = 0x5EED;
    workloads =
      [
        Matrix.workload (bh_force_name conf)
          [ (matrix_config, List.map (fun s -> Matrix.fixed s s) specs) ]
          (fun ~config:_ -> bh_force conf);
      ];
    columns =
      Matrix.
        [
          schedule "FAULTS";
          time;
          metric "GOODPUT%" "goodput"
            (fun g -> Printf.sprintf "%.1f" (100. *. g))
            goodput;
          count "RETRANS" "retransmits";
          count "RT RETRIES" "rt_retries";
          count "DROPS" "drops";
          count "DUPS SUPPR" "dups_suppressed";
          result "FORCES";
        ];
    summary = None;
    witnesses = [];
  }

(* -------------------------------------------------------------------- A12 *)

type adaptive_strip_point = {
  as_mode : string;
  as_time_s : float;
  as_final_strip : int;
  as_grows : int;
  as_shrinks : int;
  as_peak_d : int;
  as_max_out : int;
}

(* Fault-free BH force phase per strip mode; all the columns come from the
   phase's [Dpa_stats], so no sink is needed. *)
let adaptive_strip_sweep ?(strips = [ 10; 25; 50; 100; 300 ])
    (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  let params = Dpa_bh.Bh_force.default_params in
  let point name variant =
    let bodies = Dpa_bh.Plummer.generate ~n:conf.Runconf.bh_bodies ~seed:17 in
    let octree = Dpa_bh.Octree.build bodies in
    let tree = Dpa_bh.Bh_global.distribute octree ~nnodes:procs in
    let machine = Machine.make ~nodes:procs () in
    let engine = Engine.create machine in
    Engine.set_fault engine None;
    let r = Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies ~params variant in
    let s = Option.get r.Dpa_bh.Bh_run.dpa_stats in
    {
      as_mode = name;
      as_time_s = Breakdown.elapsed_s r.Dpa_bh.Bh_run.breakdown;
      as_final_strip = s.Dpa.Dpa_stats.strip_size_final;
      as_grows = s.Dpa.Dpa_stats.strip_grows;
      as_shrinks = s.Dpa.Dpa_stats.strip_shrinks;
      as_peak_d = s.Dpa.Dpa_stats.align_peak;
      as_max_out = s.Dpa.Dpa_stats.max_outstanding;
    }
  in
  List.map
    (fun strip ->
      point (string_of_int strip)
        (Dpa_baselines.Variant.dpa ~strip_size:strip ()))
    strips
  @ [ point "auto" (Dpa_baselines.Variant.Dpa (Dpa.Config.dpa_auto ())) ]

let adaptive_strip_columns : adaptive_strip_point Table.column list =
  [
    column "STRIP" "strip" string (fun p -> p.as_mode);
    column "TIME(s)" "time_s" (float sec) (fun p -> p.as_time_s);
    column "FINAL" "final_strip" int (fun p -> p.as_final_strip);
    column "GROWS" "grows" int (fun p -> p.as_grows);
    column "SHRINKS" "shrinks" int (fun p -> p.as_shrinks);
    column "PEAK D" "align_peak" int (fun p -> p.as_peak_d);
    column "MAX OUT" "max_outstanding" int (fun p -> p.as_max_out);
  ]

(* Same phase, same fault plan and seed, with only the timeout policy
   varied. The interesting column is RT RETRIES: the constant wheel base
   undershoots an injected NIC outage and re-issues requests the
   transport was already recovering; the estimator learns outage-scale
   round trips and backs the wheel off. *)
let adaptive_rto_sweep (conf : Runconf.t) =
  let heavy = [ Matrix.fixed "heavy" "heavy" ] in
  {
    Matrix.name = "a12b";
    title =
      Printf.sprintf
        "A12b: constant vs adaptive retransmission timeout — BH force phase \
         under heavy faults (%d nodes)"
        conf.Runconf.breakdown_procs;
    seed = 0x5EED;
    workloads =
      [
        Matrix.workload (bh_force_name conf)
          [ ("constant", heavy); ("adaptive", heavy) ]
          (fun ~config -> bh_force ~adaptive_rto:(config = "adaptive") conf);
      ];
    columns =
      Matrix.
        [
          config "RTO";
          time;
          count "RETRANS" "retransmits";
          count "RT RETRIES" "rt_retries";
          result "FORCES";
        ];
    summary = None;
    witnesses = [];
  }

(* -------------------------------------------------------------------- A13 *)

module Em3d_interp = Dpa_compiler.Interp.Make (Dpa.Runtime)

(* The EM3D checksum is a global reduction whose terms arrive in wake
   order; snapping every term onto a fixed grid makes the sum exact (and
   therefore order-independent) — see {!Dpa_compiler.Interp.Make.compile}.
   Per-item values are O(10) and there are O(10^3) of them, so the running
   sum stays far inside the 2^(53-36) exactness bound. *)
let em3d_accum_grid = Dpa_util.Det.grid ~bits:36

(* The workloads A13 and A14 share, each under every schedule of [grid]. *)
let chaos_workloads (conf : Runconf.t) grid =
  let procs = conf.Runconf.breakdown_procs in
  (* Odd node count for the same reason as [upward_sweep]: power-of-two
     Morton blocks keep every M2M local on a complete quadtree. *)
  let fmm_nodes = max 3 (procs - 1) in
  let fmm plan =
    let params = fmm_params conf in
    let parts =
      Dpa_fmm.Particle2d.uniform ~n:conf.Runconf.fmm_particles ~seed:23
    in
    let tree = Dpa_fmm.Quadtree.build parts in
    let global =
      Dpa_fmm.Fmm_global.distribute_empty ~p:params.Dpa_fmm.Fmm_force.p tree
        ~nnodes:fmm_nodes
    in
    let engine = Matrix.engine ~nodes:fmm_nodes plan in
    let r =
      Dpa_fmm.Fmm_upward.run ~engine ~global ~params
        (dpa_variant conf ~strip:conf.Runconf.fmm_strip)
    in
    let multipoles =
      (* Cells above level 2 have no multipole object (no well-separated
         interactions exist for them): their pointer slot is nil. *)
      Array.map
        (fun ptr ->
          if Dpa_heap.Gptr.is_nil ptr then [||]
          else
            Array.copy
              (Dpa_heap.Heap.deref global.Dpa_fmm.Fmm_global.heaps ptr)
                .Dpa_heap.Obj_repr.floats)
        global.Dpa_fmm.Fmm_global.mp_ptrs
    in
    {
      Matrix.result = multipoles;
      engine;
      time_s = Breakdown.elapsed_s r.Dpa_fmm.Fmm_upward.breakdown;
      stats = Option.get r.Dpa_fmm.Fmm_upward.dpa_stats;
      extra = [];
    }
  in
  let em3d plan =
    let per_node = max 8 (conf.Runconf.bh_bodies / procs / 4) in
    let g =
      Dpa_compiler.Em3d.build ~nnodes:procs ~e_per_node:per_node
        ~h_per_node:per_node ~degree:20 ~remote_frac:0.25 ~seed:29
    in
    (* A fresh compile per run: the compiled program owns the checksum
       accumulator, and reuse would sum across runs. *)
    let c =
      Em3d_interp.compile ~accum_grid:em3d_accum_grid
        (Dpa_compiler.Em3d.update_program ~degree:20)
    in
    let engine = Matrix.engine ~nodes:procs plan in
    let per = Array.length g.Dpa_compiler.Em3d.e_nodes / procs in
    let items node =
      Array.init per (fun i ->
          Em3d_interp.item c ~entry:"update_node"
            ~args:
              [
                Dpa_compiler.Value.Ptr
                  g.Dpa_compiler.Em3d.e_nodes.((node * per) + i);
              ])
    in
    let b, stats =
      Dpa.Runtime.run_phase_labeled ~label:"em3d-ir" ~engine
        ~heaps:g.Dpa_compiler.Em3d.heaps
        ~config:(Dpa.Config.dpa ~strip_size:conf.Runconf.bh_strip ())
        ~items
    in
    {
      Matrix.result = Em3d_interp.accumulator c "sum";
      engine;
      time_s = Breakdown.elapsed_s b;
      stats;
      extra = [];
    }
  in
  [
    Matrix.workload (bh_force_name conf) grid (fun ~config:_ -> bh_force conf);
    Matrix.workload
      (Printf.sprintf "FMM upward (%d nodes)" fmm_nodes)
      grid
      (fun ~config:_ -> fmm);
    Matrix.workload
      (Printf.sprintf "EM3D via compiler IR (%d nodes)" procs)
      grid
      (fun ~config:_ -> em3d);
  ]

(* Reads re-fetch through the alignment path after a restart, updates are
   journaled exactly-once, and the reductions are grid-snapped so arrival
   order cannot perturb them — so even schedules that lose whole nodes
   mid-phase must reproduce the reference bit for bit. *)
let crash_matrix (conf : Runconf.t) =
  let grid =
    [
      ( matrix_config,
        Matrix.
          [
            fixed "off" "off";
            fixed "drop+dup+delay" "drop=0.05,dup=0.02,delay=0.10";
            crashing "crash" "";
            derived "heavy+crash" (fun e ->
                Printf.sprintf "heavy,outage-ns=%d,%s" (crash_ns e)
                  (crash_knobs e));
          ] );
    ]
  in
  {
    Matrix.name = "a13";
    title =
      "A13: crash-restart chaos matrix — every schedule must reproduce the \
       fault-free result bit for bit";
    seed = 0xC4A5;
    workloads = chaos_workloads conf grid;
    columns =
      Matrix.
        [
          schedule "SCHEDULE";
          time;
          count "RETRANS" "retransmits";
          count "FENCED" "fenced";
          count "CRASHES" "crashes";
          count "REFETCHED" "crash_refetches";
          result "RESULT";
        ];
    summary =
      Some
        (fun cells ->
          Printf.sprintf
            "a13 summary: %d crash-restarts executed, %d schedule(s) diverged"
            (Matrix.total "crashes" cells)
            (Matrix.diverged cells));
    witnesses =
      [ ("crash-restarts executed", Matrix.nonzero "crashes") ];
  }

(* -------------------------------------------------------------------- A14 *)

(* A corrupted copy is fenced at the NIC by its checksum and recovered by
   retransmission; a torn WAL tail is truncated by the restart scan and
   repaired from the doublewrite slot. The CORRUPT / WAL TRUNC / REPAIR
   columns prove the fault classes actually executed. *)
let integrity_matrix (conf : Runconf.t) =
  (* A fourth, accumulate-heavy workload: the shared trio barely exercises
     the durable logs (BH and EM3D accumulate host-side; FMM's remote M2M
     contributions cluster at the top of the upward pass, after the crash
     windows), so torn-write tears would land on empty WALs and absorb
     harmlessly. Here every node streams remote accumulates from its very
     first strip, so a mid-phase crash tears real Batch/Applied records —
     the WAL TRUNC and REPAIR columns of this row witness the recovery
     path end to end. *)
  let procs = conf.Runconf.breakdown_procs in
  let accum_reduce plan =
    let heaps = Dpa_heap.Heap.cluster ~nnodes:procs in
    let counters =
      Array.init (2 * procs) (fun i ->
          Dpa_heap.Heap.alloc
            heaps.(i mod procs)
            ~floats:(Array.make 2 0.) ~ptrs:[||])
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
    let engine = Matrix.engine ~nodes:procs plan in
    let b, stats =
      Dpa.Runtime.run_phase_labeled ~label:"accum-reduce" ~engine ~heaps
        ~config:(Dpa.Config.dpa ~strip_size:8 ())
        ~items
    in
    {
      Matrix.result =
        Array.map
          (fun p ->
            Array.copy (Dpa_heap.Heap.deref heaps p).Dpa_heap.Obj_repr.floats)
          counters;
      engine;
      time_s = Breakdown.elapsed_s b;
      stats;
      extra = [];
    }
  in
  let grid =
    [
      ( matrix_config,
        Matrix.
          [
            fixed "off" "off";
            fixed "corrupt" "corrupt=0.05";
            crashing "torn-wal" "torn-wal=1";
            crashing "heavy+corrupt+crash" "heavy,corrupt=0.02,torn-wal=1";
          ] );
    ]
  in
  {
    Matrix.name = "a14";
    title =
      "A14: end-to-end integrity matrix — corruption is fenced by checksums, \
       torn WAL tails repair from the doublewrite slot";
    seed = 0x14C5;
    workloads =
      chaos_workloads conf grid
      @ [
          Matrix.workload
            (Printf.sprintf "Accumulate reduction (%d nodes)" procs)
            grid
            (fun ~config:_ -> accum_reduce);
        ];
    columns =
      Matrix.
        [
          schedule "SCHEDULE";
          time;
          count "RETRANS" "retransmits";
          count "CORRUPT" "corrupt_dropped";
          count "CRASHES" "crashes";
          count "WAL TRUNC" "wal_truncated";
          count "REPAIR" "wal_repaired";
          result "RESULT";
        ];
    summary =
      Some
        (fun cells ->
          Printf.sprintf
            "a14 summary: %d corruptions dropped, %d wal records truncated, \
             %d schedule(s) diverged"
            (Matrix.total "corrupt_dropped" cells)
            (Matrix.total "wal_truncated" cells)
            (Matrix.diverged cells));
    witnesses =
      [
        ("corruptions dropped", Matrix.nonzero "corrupt_dropped");
        ("WAL records truncated", Matrix.nonzero "wal_truncated");
      ];
  }

(* -------------------------------------------------------------------- A15 *)

(* Attach a private sink carrying a causal log to an a15 engine, so the
   per-phase optimality meters ([opt_actual] / [opt_bound]) attached to the
   analyzed phase windows stay in reach after the run — without touching
   an enclosing [--events] stream. *)
let causal_log engine =
  let sink = Dpa_obs.Sink.create () in
  let c = Dpa_obs.Causal.create () in
  Dpa_obs.Sink.set_causal sink (Some c);
  Engine.set_sink engine (Some sink);
  c

(* The [(opt_actual, opt_bound)] counters of the phases named [label], in
   execution order. *)
let opt_meters c label =
  List.filter_map
    (fun (i : Dpa_obs.Causal.instance) ->
      if i.Dpa_obs.Causal.i_label = label then
        Some
          [
            ("opt_actual", i.Dpa_obs.Causal.i_opt_actual);
            ("opt_bound", i.Dpa_obs.Causal.i_opt_bound);
          ]
      else None)
    (Dpa_obs.Causal.results c)

let ratio c =
  let bound = Matrix.counter c "opt_bound" in
  if bound = 0 then Float.nan
  else float_of_int (Matrix.counter c "opt_actual") /. float_of_int bound

(* Each optimization's fault-free cell against its baseline's: the pairs
   the headline ratio improvement is read from. *)
let headlines cells =
  List.filter_map
    (fun (base, opt) ->
      let off config =
        List.find_opt
          (fun (c : Matrix.cell) -> c.config = config && c.schedule = "off")
          cells
      in
      match (off base, off opt) with
      | Some b, Some o -> Some (b, o)
      | _ -> None)
    [ ("flat", "routed"); ("static", "repartitioned") ]

let improved cells =
  let pairs = headlines cells in
  pairs <> [] && List.for_all (fun (b, o) -> ratio o < ratio b) pairs

(* Re-issues executed by routed cells under a crash schedule; zero means
   the crash windows never tested the custody recovery path. *)
let route_crash_reissues cells =
  Matrix.total "reissues"
    (List.filter
       (fun (c : Matrix.cell) ->
         c.config = "routed" && String.ends_with ~suffix:"crash" c.schedule)
       cells)

(* Two workloads whose measured gap the optimizations close:

   - a fan-in reduction (every counter owned by node 0, many strips per
     node) run flat and with tree-routed aggregation: the phase-long hold
     collapses the per-strip re-sends of the same few entries and the
     binomial tree combines them en route, so the measured volume drops
     toward the bound while the grid-exact sums stay bit-identical;

   - a two-step Barnes-Hut run, statically partitioned vs Morton
     repartitioned from measured per-body work: the work-balanced cut
     aligns ownership with the evolved tree, shrinking the remote volume
     of the second step's gather relative to its footprint bound.

   The fan-in row also runs the routed configuration under crash-restart
   schedules: parked relay batches are volatile, but every routed batch
   stays under its origin's custody (WAL + end-to-end ack from the final
   owner) until applied, so a crash only costs a straight-line re-issue
   that the owner journal dedups — the REISSUES column counts those. One
   node of the fan-in (node 4, the binomial-tree relay for origins 5 and
   6) computes 8x longer than the rest so routed batches reliably sit
   parked at a live relay inside the crash horizon. *)
let optimality_matrix (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  let nbodies = conf.Runconf.bh_bodies in
  let fanin ~config plan =
    let heaps = Dpa_heap.Heap.cluster ~nnodes:procs in
    let counters =
      Array.init 4 (fun _ ->
          Dpa_heap.Heap.alloc heaps.(0) ~floats:(Array.make 2 0.) ~ptrs:[||])
    in
    let items node =
      Array.init 32 (fun i ->
          fun ctx ->
            Dpa.Runtime.charge ctx (if node = 4 then 16_000 else 2_000);
            Dpa.Runtime.accumulate ctx
              counters.((node + i) mod 4)
              ~idx:(i mod 2)
              (float_of_int ((node * 32) + i + 1)))
    in
    let engine = Matrix.engine ~nodes:procs plan in
    let c = causal_log engine in
    let route =
      if config = "routed" then Dpa.Config.All_dsts else Dpa.Config.Off
    in
    let b, stats =
      Dpa.Runtime.run_phase_labeled ~label:"fanin-reduce" ~engine ~heaps
        ~config:(Dpa.Config.dpa ~strip_size:4 ~route ())
        ~items
    in
    let opt =
      match opt_meters c "fanin-reduce" with
      | [ m ] -> m
      | l -> invalid_arg (Printf.sprintf "a15: %d fanin phases" (List.length l))
    in
    {
      Matrix.result =
        Array.map
          (fun p ->
            Array.copy (Dpa_heap.Heap.deref heaps p).Dpa_heap.Obj_repr.floats)
          counters;
      engine;
      time_s = Breakdown.elapsed_s b;
      stats;
      extra = ("msgs", stats.Dpa.Dpa_stats.update_msgs) :: opt;
    }
  in
  (* Two steps driven by hand so the engine and the causal log stay in
     reach: step 1 always uses the static block partition; step 2 is the
     one repartitioning re-cuts. *)
  let bh_steps ~config plan =
    let params = Dpa_bh.Bh_force.default_params in
    let bodies = Dpa_bh.Plummer.generate ~n:nbodies ~seed:17 in
    let engine = Matrix.engine ~nodes:procs plan in
    let c = causal_log engine in
    let work =
      if config = "repartitioned" then Some (Array.make nbodies 0) else None
    in
    let prev = ref None in
    let time_s = ref 0. in
    let stats = ref [] in
    for _step = 1 to 2 do
      let octree = Dpa_bh.Octree.build bodies in
      (match work with
      | Some w -> Array.fill w 0 (Array.length w) 0
      | None -> ());
      let tree =
        Dpa_bh.Bh_global.distribute ?weights:!prev octree ~nnodes:procs
      in
      let r =
        Dpa_bh.Bh_run.force_phase ?work ~engine ~tree ~bodies ~params
          (dpa_variant conf ~strip:conf.Runconf.bh_strip)
      in
      (match work with
      | Some w -> prev := Some (Array.copy w)
      | None -> ());
      time_s := !time_s +. Breakdown.elapsed_s r.Dpa_bh.Bh_run.breakdown;
      stats := Option.get r.Dpa_bh.Bh_run.dpa_stats :: !stats;
      Array.iteri
        (fun bid acc -> bodies.(bid).Dpa_bh.Body.acc <- acc)
        r.Dpa_bh.Bh_run.accs;
      Dpa_bh.Body.advance bodies ~dt:0.025
    done;
    let step2 = List.hd !stats in
    let opt =
      match opt_meters c "bh-force" with
      | [ _; m ] -> m
      | l -> invalid_arg (Printf.sprintf "a15: %d bh phases" (List.length l))
    in
    {
      Matrix.result = bodies;
      engine;
      time_s = !time_s;
      stats = Dpa.Dpa_stats.merge !stats;
      extra = ("msgs", step2.Dpa.Dpa_stats.request_msgs) :: opt;
    }
  in
  let off = Matrix.fixed "off" "off" and heavy = Matrix.fixed "heavy" "heavy" in
  let bh_schedules = [ off; heavy; Matrix.crashing "heavy+crash" "heavy" ] in
  {
    Matrix.name = "a15";
    title =
      "A15: communication-optimality matrix — tree-routed aggregation and \
       Morton repartitioning vs the flat/static baseline";
    seed = 0x0A15;
    workloads =
      [
        Matrix.workload
          (Printf.sprintf "Fan-in reduction (%d nodes, all counters on node 0)"
             procs)
          [
            ("flat", [ off; heavy ]);
            ( "routed",
              [
                off;
                heavy;
                Matrix.crashing "crash" "";
                Matrix.crashing "heavy+crash" "heavy";
              ] );
          ]
          fanin;
        Matrix.workload
          (Printf.sprintf "BH step 2 of 2 (%d bodies, %d nodes)" nbodies procs)
          [ ("static", bh_schedules); ("repartitioned", bh_schedules) ]
          bh_steps;
      ];
    columns =
      Matrix.
        [
          config "CONFIG";
          schedule "SCHEDULE";
          time;
          count "MSGS" "msgs";
          count "ACTUAL(B)" "opt_actual";
          count "BOUND(B)" "opt_bound";
          metric "RATIO" "ratio" (Printf.sprintf "%.3f") ratio;
          count "REISSUES" "reissues";
          result "RESULT";
        ];
    summary =
      Some
        (fun cells ->
          Printf.sprintf
            "a15 summary: %s, improved=%s, %d route-crash re-issue(s), %d \
             cell(s) diverged"
            (String.concat ", "
               (List.map
                  (fun ((b : Matrix.cell), (o : Matrix.cell)) ->
                    Printf.sprintf "%s %.3f -> %s %.3f" b.config (ratio b)
                      o.config (ratio o))
                  (headlines cells)))
            (if improved cells then "yes" else "no")
            (route_crash_reissues cells) (Matrix.diverged cells));
    witnesses =
      [
        ("routed and repartitioned ratios improved", improved);
        ("route-crash re-issues", fun cells -> route_crash_reissues cells > 0);
      ];
  }

(* ------------------------------------------------------------------- A16 *)

(* Allocation baseline of the boxed per-object heap (the representation
   the flat struct-of-arrays heap replaced), measured pre-refactor with
   the same probe on the same configurations: total allocated words of a
   full [Bh_run.simulate], divided by bodies x steps. The committed
   BENCH_scale.json gates the flat heap's reduction against these
   constants (docs/PERFORMANCE.md). *)
let scale_boxed_baseline = [ (8, 2000, 3, 18065.8); (16, 8000, 2, 26539.1); (32, 20000, 1, 35366.4) ]

let scale_gate_threshold = 5.0

type scale_gate_row = {
  sg_nodes : int;
  sg_bodies : int;
  sg_steps : int;
  sg_wall_s : float;
  sg_words : float;
  sg_boxed_words : float;
  sg_majors : int;
}

let sg_reduction r = r.sg_boxed_words /. r.sg_words

type scale_row = {
  sc_nodes : int;
  sc_bodies : int;
  sc_wall_s : float;
  sc_words_per_body : float;
  sc_majors : int;
  sc_bytes_moved : int;
}

(* Words allocated so far: minor words plus what went to the major heap
   directly. OCaml 5.1's [Gc.allocated_bytes] reads the minor heap's
   uncollected tail at an eighth of its size; [Gc.minor_words] is exact,
   and [Gc.counters]' major minus promoted words is the direct major
   allocation. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Wall seconds, allocated words and major collections around [f ()]. *)
let scale_measure f =
  Gc.compact ();
  let s0 = Gc.quick_stat () in
  let w0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let wall = Unix.gettimeofday () -. t0 in
  let w1 = allocated_words () in
  let s1 = Gc.quick_stat () in
  (r, wall, w1 -. w0, s1.Gc.major_collections - s0.Gc.major_collections)

let scale_gate (conf : Runconf.t) =
  List.map
    (fun (nnodes, nbodies, nsteps, boxed) ->
      let _, wall, words, majors =
        scale_measure (fun () ->
            Dpa_bh.Bh_run.simulate ~nnodes ~nbodies ~nsteps
              (dpa_variant conf ~strip:conf.Runconf.bh_strip))
      in
      {
        sg_nodes = nnodes;
        sg_bodies = nbodies;
        sg_steps = nsteps;
        sg_wall_s = wall;
        sg_words = words /. float_of_int (nbodies * nsteps);
        sg_boxed_words = boxed;
        sg_majors = majors;
      })
    scale_boxed_baseline

(* The big-end rows run one distributed force phase (no sequential
   counting pass, no integration): what the flat heap must sustain is the
   strip-mined traversal itself at million-body scale. *)
let scale_points (conf : Runconf.t) =
  if conf.Runconf.name = "full" then
    [ (64, 100_000); (128, 300_000); (256, 1_000_000) ]
  else [ (16, 20_000) ]

let scale_sweep (conf : Runconf.t) =
  List.map
    (fun (nnodes, nbodies) ->
      let bodies = Dpa_bh.Plummer.generate ~n:nbodies ~seed:17 in
      let octree = Dpa_bh.Octree.build ~leaf_cap:8 bodies in
      let tree = Dpa_bh.Bh_global.distribute octree ~nnodes in
      let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
      let _, wall, words, majors =
        scale_measure (fun () ->
            Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
              ~params:Dpa_bh.Bh_force.default_params
              (dpa_variant conf ~strip:conf.Runconf.bh_strip))
      in
      let bytes_moved =
        Array.fold_left
          (fun acc (n : Node.t) -> acc + n.Node.bytes_sent)
          0 (Engine.nodes engine)
      in
      {
        sc_nodes = nnodes;
        sc_bodies = nbodies;
        sc_wall_s = wall;
        sc_words_per_body = words /. float_of_int nbodies;
        sc_majors = majors;
        sc_bytes_moved = bytes_moved;
      })
    (scale_points conf)

let scale_gate_columns : scale_gate_row Table.column list =
  [
    column "NODES" "nodes" int (fun r -> r.sg_nodes);
    column "BODIES" "bodies" int (fun r -> r.sg_bodies);
    column "STEPS" "steps" int (fun r -> r.sg_steps);
    column "WALL(s)" "wall_s" (float sec) (fun r -> r.sg_wall_s);
    column "WORDS/BODY-STEP" "words_per_body_step" (float one_decimal)
      (fun r -> r.sg_words);
    column "BOXED" "boxed_words_per_body_step" (float one_decimal) (fun r ->
        r.sg_boxed_words);
    column "REDUCTION" "reduction_x" (float (Printf.sprintf "%.2fx"))
      sg_reduction;
    column "MAJOR-GCS" "major_collections" int (fun r -> r.sg_majors);
  ]

let scale_columns : scale_row Table.column list =
  [
    column "NODES" "nodes" int (fun r -> r.sc_nodes);
    column "BODIES" "bodies" int (fun r -> r.sc_bodies);
    column "WALL(s)" "wall_s" (float sec) (fun r -> r.sc_wall_s);
    column "WORDS/BODY" "words_per_body" (float one_decimal) (fun r ->
        r.sc_words_per_body);
    column "MAJOR-GCS" "major_collections" int (fun r -> r.sc_majors);
    column "BYTES-MOVED" "bytes_moved" int (fun r -> r.sc_bytes_moved);
  ]

let scale_failures gate =
  List.filter_map
    (fun r ->
      if sg_reduction r >= scale_gate_threshold then None
      else
        Some
          (Printf.sprintf
             "a16: allocation gate failed at %d nodes, %d bodies: %.2fx \
              reduction, threshold %.1fx"
             r.sg_nodes r.sg_bodies (sg_reduction r) scale_gate_threshold))
    gate

let scale_summary gate rows =
  let worst =
    List.fold_left (fun acc r -> min acc (sg_reduction r)) infinity gate
  in
  Printf.sprintf
    "a16 summary: gate=%s min_reduction=%.2fx (threshold %.1fx); largest \
     sweep %d bodies"
    (if worst >= scale_gate_threshold then "ok" else "FAILED")
    worst scale_gate_threshold
    (List.fold_left (fun acc r -> max acc r.sc_bodies) 0 rows)

let scale_json (gate, rows) =
  Dpa_obs.Json.Obj
    [
      ("bench", Str "scale");
      ("gate_threshold_x", Float scale_gate_threshold);
      ("gate", Table.json_rows scale_gate_columns gate);
      ("scale", Table.json_rows scale_columns rows);
    ]
