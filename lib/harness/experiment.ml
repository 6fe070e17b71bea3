open Dpa_sim
open Table
module Variant = Dpa_baselines.Variant
module Stats = Dpa.Dpa_stats

(* The DPA variant an experiment should run: the scale's static strip, or
   the adaptive controller seeded with it when [--strip auto] set
   [Runconf.strip_auto]. *)
let dpa_variant (conf : Runconf.t) ~strip =
  let route = if conf.Runconf.route_all then Dpa.Config.All_dsts else Dpa.Config.Off in
  if conf.Runconf.strip_auto then
    Variant.Dpa (Dpa.Config.dpa_auto ~strip_size:strip ~route ())
  else Variant.Dpa (Dpa.Config.dpa ~strip_size:strip ~route ())

let caching (conf : Runconf.t) =
  Variant.Caching { capacity = conf.Runconf.cache_capacity }

(* A fraction as a percentage with [digits] decimals. *)
let pct digits f = Printf.sprintf "%.*f" digits (100. *. f)

let one_decimal = Printf.sprintf "%.1f"

(* ------------------------------------------------------------ the driver *)

type run = {
  breakdown : Breakdown.t;
  dpa : Stats.t option;
  cache : Dpa_baselines.Caching.stats option;
  seq_s : float;
  value : float;
}

let timed ?dpa ?cache ?(seq_s = 0.) ?(value = 0.) breakdown =
  { breakdown; dpa; cache; seq_s; value }

type 'a row = { at : 'a; runs : run array }

type 'a sweep = {
  name : string;
  doc : string;
  title : Runconf.t -> string;
  points : Runconf.t -> 'a list;
  measure : memo:bool -> Runconf.t -> 'a -> run array;
  columns : 'a row Table.column list;
  footer : (Runconf.t -> string) option;
  bars : ('a -> string) option;
}

(* What every declaration below starts from: a plain table. *)
let table =
  {
    name = "";
    doc = "";
    title = (fun _ -> "");
    points = (fun _ -> []);
    measure = (fun ~memo:_ _ _ -> [||]);
    columns = [];
    footer = None;
    bars = None;
  }

let rows ?(memo = true) ?points s conf =
  let points = match points with Some p -> p | None -> s.points conf in
  List.map (fun at -> { at; runs = s.measure ~memo conf at }) points

(* The measure of a point that runs one phase. *)
let one f ~memo conf at = [| f ~memo conf at |]

let elapsed i r = Breakdown.elapsed_s r.runs.(i).breakdown
let speedup_of i r = r.runs.(i).seq_s /. elapsed i r

let print s conf =
  (* A2's footer runs its reference phase before the rows, as it always
     has: the order phases run in is the order --events lists them. *)
  let footer = Option.map (fun f -> f conf) s.footer in
  let rows = rows s conf in
  let title = s.title conf in
  match s.bars with
  | None -> Table.print ?footer title s.columns rows
  | Some label ->
    print_endline title;
    print_string
      (Barchart.render
         (List.map
            (fun r ->
              Barchart.of_breakdown ~label:(label r.at)
                ~speedup:(speedup_of 0 r) r.runs.(0).breakdown)
            rows));
    print_newline ();
    Table.json title s.columns rows

(* Cells the tables read off their rows' runs. *)
let label header key = column header key string (fun r -> fst r.at)
let time i = column "TIME(s)" "time_s" (float sec) (elapsed i)
let msgs i = column "MESSAGES" "msgs" int (fun r -> r.runs.(i).breakdown.Breakdown.msgs)

let idle r = Breakdown.idle_frac r.runs.(0).breakdown
let stat f r = f (Option.get r.runs.(0).dpa)
let dpa_count header key f = column header key int (stat f)

(* ---------------------------------------------------------------- runners *)

(* The runners run on the breakdown node count unless given [procs]. *)
let bh_sim ?machine ?partition ?repartition ?nsteps ?procs (conf : Runconf.t)
    variant =
  let procs = Option.value procs ~default:conf.Runconf.breakdown_procs in
  let nsteps = Option.value nsteps ~default:conf.Runconf.bh_steps in
  let r : Dpa_bh.Bh_run.sim_result =
    Dpa_bh.Bh_run.simulate ?machine ?partition ?repartition ~nnodes:procs
      ~nbodies:conf.Runconf.bh_bodies ~nsteps variant
  in
  let params = Dpa_bh.Bh_force.default_params in
  let seq_ns = Dpa_bh.Bh_run.sequential_ns ~params r.seq_counts in
  timed ?dpa:r.last.dpa_stats ?cache:r.last.cache_stats
    ~seq_s:(float_of_int (nsteps * seq_ns) *. 1e-9)
    r.total

let fmm_params (conf : Runconf.t) =
  { Dpa_fmm.Fmm_force.default_params with Dpa_fmm.Fmm_force.p = conf.Runconf.fmm_p }

let fmm_sim ?distribution ?procs (conf : Runconf.t) variant =
  let procs = Option.value procs ~default:conf.Runconf.breakdown_procs in
  let params = fmm_params conf in
  let r : Dpa_fmm.Fmm_run.run_result =
    Dpa_fmm.Fmm_run.run ~params ~nnodes:procs
      ~nparticles:conf.Runconf.fmm_particles ?distribution variant
  in
  let seq_ns = Dpa_fmm.Fmm_run.sequential_ns ~params r.seq_counts in
  timed ?dpa:r.phase.dpa_stats ~seq_s:(float_of_int seq_ns *. 1e-9) r.phase.breakdown

(* One BH force phase of the scale's Plummer bodies, distributed over the
   breakdown node count, on [engine]. *)
let bh_force_phase (conf : Runconf.t) ~engine variant =
  let bodies = Dpa_bh.Plummer.generate ~n:conf.Runconf.bh_bodies ~seed:17 in
  let octree = Dpa_bh.Octree.build bodies in
  let tree = Dpa_bh.Bh_global.distribute octree ~nnodes:conf.Runconf.breakdown_procs in
  Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
    ~params:Dpa_bh.Bh_force.default_params variant

(* The EM3D graph on the breakdown node count, with the original EM3D
   defaults: degree 20, 10-40% remote dependencies. *)
let em3d_graph (conf : Runconf.t) =
  let procs = conf.Runconf.breakdown_procs in
  let per_node = max 8 (conf.Runconf.bh_bodies / procs / 4) in
  Dpa_compiler.Em3d.build ~nnodes:procs ~e_per_node:per_node
    ~h_per_node:per_node ~degree:20 ~remote_frac:0.25 ~seed:29

(* The FMM upward pass runs on an odd node count: power-of-two Morton
   blocks never split sibling groups on a complete quadtree, which would
   make every M2M local. [upward_global] is its empty multipole heap. *)
let upward_nodes (conf : Runconf.t) = max 3 (conf.Runconf.breakdown_procs - 1)

let upward_global (conf : Runconf.t) =
  let parts = Dpa_fmm.Particle2d.uniform ~n:conf.Runconf.fmm_particles ~seed:23 in
  Dpa_fmm.Fmm_global.distribute_empty ~p:conf.Runconf.fmm_p
    (Dpa_fmm.Quadtree.build parts) ~nnodes:(upward_nodes conf)

(* Runs of the scale's default BH and FMM inputs, kept for the life of the
   process so the tables that share a phase (T2, F1, F3, F4, T1, A1, A2's
   footer) run it once. The key is plain data: the workload, the
   configuration (its processor list aside), the node count and the
   variant. *)
let phases = Hashtbl.create 64

let memoized ~memo key f =
  if not memo then f ()
  else
    match Hashtbl.find_opt phases key with
    | Some r -> r
    | None ->
      let r = f () in
      Hashtbl.add phases key r;
      r

type runner = memo:bool -> ?procs:int -> Runconf.t -> Variant.t -> run

let bh ~memo ?procs (conf : Runconf.t) variant =
  let procs = Option.value procs ~default:conf.Runconf.breakdown_procs in
  memoized ~memo ("bh", { conf with Runconf.procs = [] }, procs, variant)
    (fun () -> bh_sim ~repartition:conf.Runconf.repartition ~procs conf variant)

let fmm ~memo ?procs (conf : Runconf.t) variant =
  let procs = Option.value procs ~default:conf.Runconf.breakdown_procs in
  memoized ~memo ("fmm", { conf with Runconf.procs = [] }, procs, variant)
    (fun () -> fmm_sim ~procs conf variant)

(* A processor count with the paper's DPA and caching times, which only
   the full scale prints. FMM runs at the BH strip too, as T3 always has. *)
let times (runner : runner) ~paper_dpa ~paper_caching =
  {
    table with
    points = (fun conf ->
      let paper f p = if conf.Runconf.name = "full" then f p else None in
      List.map (fun p -> (p, paper paper_dpa p, paper paper_caching p)) conf.Runconf.procs);
    measure = (fun ~memo conf (procs, _, _) ->
      let strip = conf.Runconf.bh_strip in
      let dpa = runner ~memo ~procs conf (dpa_variant conf ~strip) in
      let caching = runner ~memo ~procs conf (caching conf) in
      [| dpa; caching |]);
    columns =
      [
        column "PROCS" "procs" int (fun { at = p, _, _; _ } -> p);
        column "DPA(s)" "dpa_s" (float sec) (elapsed 0);
        column "Caching(s)" "caching_s" (float sec) (elapsed 1);
        column "DPA speedup" "dpa_speedup" (float speedup) (speedup_of 0);
        column "Caching speedup" "caching_speedup" (float speedup) (fun r ->
            r.runs.(0).seq_s /. elapsed 1 r);
        column "paper DPA" "paper_dpa_s" (option (float sec))
          (fun { at = _, d, _; _ } -> d);
        column "paper Caching" "paper_caching_s" (option (float sec))
          (fun { at = _, _, c; _ } -> c);
      ];
  }

let t2 =
  {
    (times bh ~paper_dpa:Paper.bh_dpa50_s ~paper_caching:Paper.bh_caching_s)
    with
    name = "t2";
    doc = "Barnes-Hut execution-time table";
    title = (fun conf ->
      Printf.sprintf
        "T2: Barnes-Hut force-phase times (%d bodies, %d step(s), strip %d)"
        conf.Runconf.bh_bodies conf.Runconf.bh_steps conf.Runconf.bh_strip);
  }

let t3 =
  {
    (times fmm ~paper_dpa:Paper.fmm_dpa50_s ~paper_caching:Paper.fmm_caching_s)
    with
    name = "t3";
    doc = "FMM execution-time table";
    title = (fun conf ->
      Printf.sprintf "T3: FMM force-phase times (%d particles, p=%d)"
        conf.Runconf.fmm_particles conf.Runconf.fmm_p);
  }

(* Blocking, caching, pipelining, pipelining + aggregation and full DPA on
   the breakdown node count, as bars; the columns give the JSON. *)
let breakdown (runner : runner) ~strip =
  let frac header key f =
    column header key (float (pct 1)) (fun r -> f r.runs.(0).breakdown)
  in
  {
    table with
    points = (fun conf ->
      let strip = strip conf in
      [
        ("Blocking (base)", Variant.Blocking);
        ("Caching", caching conf);
        ("Pipeline", Variant.Dpa (Dpa.Config.pipeline_only ~strip_size:strip ()));
        ( "Pipeline+agg",
          Variant.Dpa (Dpa.Config.pipeline_aggregate ~strip_size:strip ()) );
        ( (if conf.Runconf.strip_auto then "DPA(auto)"
           else Printf.sprintf "DPA(%d)" strip),
          dpa_variant conf ~strip );
      ]);
    measure = one (fun ~memo conf (_, variant) -> runner ~memo conf variant);
    columns =
      [
        label "VARIANT" "variant";
        time 0;
        frac "LOCAL %" "local_frac" Breakdown.local_frac;
        frac "COMM %" "comm_frac" Breakdown.comm_frac;
        frac "IDLE %" "idle_frac" Breakdown.idle_frac;
        msgs 0;
        column "BYTES" "bytes" int (fun r -> r.runs.(0).breakdown.Breakdown.bytes);
        column "SPEEDUP" "speedup" (float speedup) (speedup_of 0);
      ];
    bars = Some fst;
  }

let f1 =
  {
    (breakdown bh ~strip:(fun conf -> conf.Runconf.bh_strip)) with
    name = "f1";
    doc = "Barnes-Hut breakdown figure";
    title = (fun conf ->
      Printf.sprintf "F1: Barnes-Hut breakdown on %d nodes" conf.Runconf.breakdown_procs);
  }

let f2 =
  {
    (breakdown fmm ~strip:(fun conf -> conf.Runconf.fmm_strip)) with
    name = "f2";
    doc = "FMM breakdown figure";
    title = (fun conf ->
      Printf.sprintf "F2: FMM breakdown on %d nodes (strip %d)"
        conf.Runconf.breakdown_procs conf.Runconf.fmm_strip);
  }

let f3 =
  {
    table with
    name = "f3";
    doc = "Strip-size sensitivity figure";
    title = Fun.const "F3: strip-size sensitivity (DPA, breakdown node count)";
    points = Fun.const [ 10; 25; 50; 100; 200; 300; 500; 1000 ];
    measure = (fun ~memo conf strip ->
      let variant = Variant.dpa ~strip_size:strip () in
      let bh = bh ~memo conf variant in
      let fmm = fmm ~memo conf variant in
      [| bh; fmm |]);
    columns =
      [
        column "STRIP" "strip" int (fun r -> r.at);
        column "BH(s)" "bh_s" (float sec) (elapsed 0);
        column "FMM(s)" "fmm_s" (float sec) (elapsed 1);
        dpa_count "BH max outstanding" "bh_max_outstanding" (fun s ->
            s.Stats.max_outstanding);
        dpa_count "BH peak D" "bh_align_peak" (fun s -> s.Stats.align_peak);
        dpa_count "BH max batch" "bh_max_batch" (fun s -> s.Stats.max_batch);
      ];
  }

let f4 =
  {
    table with
    name = "f4";
    doc = "Speedup curves";
    title = Fun.const "F4: DPA speedups over modelled sequential time";
    points = (fun conf -> conf.Runconf.procs);
    measure = (fun ~memo conf procs ->
      let variant = dpa_variant conf ~strip:conf.Runconf.bh_strip in
      let bh = bh ~memo ~procs conf variant in
      let fmm = fmm ~memo ~procs conf variant in
      [| bh; fmm |]);
    columns =
      [
        column "PROCS" "procs" int (fun r -> r.at);
        column "BH speedup" "bh_speedup" (float speedup) (speedup_of 0);
        column "FMM speedup" "fmm_speedup" (float speedup) (speedup_of 1);
      ];
  }

(* Static thread-creation sites in the hand-partitioned phases: the root
   read and the child-cell read for Barnes-Hut; the V-list multipole read
   and the U-list particle read for FMM. These constants mirror what
   Partition.analyze reports for the equivalent IR programs. A compiler
   example runs no phase: its dynamic columns read 0. *)
let t1 =
  let count header key f =
    column header key int (fun r -> if r.runs = [||] then 0 else stat f r)
  in
  let ir (name, program, entry) =
    let info = Dpa_compiler.(Partition.analyze program (Ast.func program entry)) in
    (name, List.length info.Dpa_compiler.Partition.spawn_sites, None)
  in
  {
    table with
    name = "t1";
    doc = "Static/dynamic thread statistics table";
    title = Fun.const "T1: static and dynamic thread statistics (DPA)";
    points = (fun _ ->
      [ ("Barnes-Hut", 2, Some `Bh); ("FMM", 2, Some `Fmm) ]
      @ List.map ir
          Dpa_compiler.Programs.
            [
              ("list_sum (IR)", list_sum, "sum_list");
              ("tree_sum (IR)", tree_sum, "sum_tree");
              ("pair_sum (IR)", pair_sum, "sum_pair");
            ]);
    measure = (fun ~memo conf (_, _, workload) ->
      match workload with
      | Some `Bh -> [| bh ~memo conf (dpa_variant conf ~strip:conf.Runconf.bh_strip) |]
      | Some `Fmm ->
        [| fmm ~memo conf (dpa_variant conf ~strip:conf.Runconf.fmm_strip) |]
      | None -> [||]);
    columns =
      [
        column "PROGRAM" "program" string (fun { at = name, _, _; _ } -> name);
        column "STATIC SITES" "static_sites" int (fun { at = _, n, _; _ } -> n);
        count "DYN THREADS" "dynamic_threads" (fun s ->
            s.Stats.spawns + s.Stats.merge_hits);
        count "MAX OUTSTANDING" "max_outstanding" (fun s -> s.Stats.max_outstanding);
        count "PEAK D" "align_peak" (fun s -> s.Stats.align_peak);
        count "MAX BATCH" "max_batch" (fun s -> s.Stats.max_batch);
        count "REQ MSGS" "request_msgs" (fun s -> s.Stats.request_msgs);
      ];
  }

let a1 =
  {
    table with
    name = "a1";
    doc = "Aggregation-bound ablation";
    title = Fun.const "A1: aggregation-bound ablation (Barnes-Hut, DPA)";
    points = Fun.const [ 1; 4; 16; 64; 256 ];
    measure = one (fun ~memo conf agg_max ->
      let strip_size = conf.Runconf.bh_strip in
      bh ~memo conf (Variant.Dpa (Dpa.Config.dpa ~strip_size ~agg_max ())));
    columns =
      [
        column "AGG MAX" "agg_max" int (fun r -> r.at);
        time 0;
        msgs 0;
        dpa_count "MAX BATCH" "max_batch" (fun s -> s.Stats.max_batch);
      ];
  }

let a2 =
  let cache header key f =
    column header key int (fun r -> f (Option.get r.runs.(0).cache))
  in
  {
    table with
    name = "a2";
    doc = "Caching cache-size ablation";
    title = Fun.const "A2: software-caching cache-size ablation (Barnes-Hut)";
    points = Fun.const [ 64; 256; 1024; 4096; 16384 ];
    measure =
      one (fun ~memo conf capacity -> bh ~memo conf (Variant.Caching { capacity }));
    columns =
      Dpa_baselines.Caching.
        [
          column "CAPACITY" "capacity" int (fun r -> r.at);
          time 0;
          cache "HITS" "hits" (fun s -> s.hits);
          cache "MISSES" "misses" (fun s -> s.misses);
          cache "EVICTIONS" "evictions" (fun s -> s.evictions);
        ];
    footer =
      Some
        (fun conf ->
          let dpa =
            bh ~memo:true conf (dpa_variant conf ~strip:conf.Runconf.bh_strip)
          in
          Printf.sprintf "(DPA reference time: %s s)"
            (Table.sec (Breakdown.elapsed_s dpa.breakdown)));
  }

let a3 =
  {
    table with
    name = "a3";
    doc = "FMM input-distribution ablation";
    title = Fun.const "A3: FMM input-distribution ablation (DPA)";
    points = Fun.const [ ("uniform", `Uniform); ("clustered(8)", `Clustered 8) ];
    measure = one (fun ~memo:_ conf (_, distribution) ->
      fmm_sim ~distribution conf (dpa_variant conf ~strip:conf.Runconf.fmm_strip));
    columns =
      [
        label "DISTRIBUTION" "distribution";
        time 0;
        column "IDLE %" "idle_frac" (float (pct 0)) idle;
        msgs 0;
      ];
  }

(* Not under [--repartition]: only the default BH input honours it. *)
let a4 =
  {
    table with
    name = "a4";
    doc = "Barnes-Hut partitioning ablation";
    title = Fun.const "A4: Barnes-Hut partitioning ablation (DPA)";
    points = Fun.const [ ("equal-count blocks", `Block); ("costzones", `Costzones) ];
    measure = one (fun ~memo:_ conf (_, partition) ->
      bh_sim ~partition conf (dpa_variant conf ~strip:conf.Runconf.bh_strip));
    columns =
      [
        label "PARTITION" "partition";
        time 0;
        column "IDLE %" "idle_frac" (float (pct 0)) idle;
      ];
  }

let a5 =
  {
    table with
    name = "a5";
    doc = "EM3D irregular-graph kernel";
    title = Fun.const "A5: EM3D irregular-graph kernel (degree 20, 25% remote)";
    points = (fun conf ->
      [
        ("DPA(50)", Variant.dpa ~strip_size:conf.Runconf.bh_strip ());
        ("Caching", caching conf);
        ("Blocking", Variant.Blocking);
      ]);
    measure = (fun ~memo:_ conf (_, variant) ->
      let g = em3d_graph conf in
      let sum = ref 0. in
      let accum v = sum := !sum +. v in
      let engine = Engine.create (Machine.t3d ~nodes:conf.Runconf.breakdown_procs) in
      let b, stats =
        Variant.run_phase variant ~label:"em3d" ~engine
          ~heaps:g.Dpa_compiler.Em3d.heaps
          { items = (fun a -> Dpa_compiler.Em3d.items a g ~accum) }
      in
      [|
        timed ?dpa:(Variant.dpa_stats stats)
          ?cache:(Variant.cache_stats stats) ~value:!sum b;
      |]);
    columns =
      [
        label "RUNTIME" "runtime";
        time 0;
        msgs 0;
        column "CHECKSUM" "checksum" (float (Printf.sprintf "%.6f")) (fun r ->
            r.runs.(0).value);
      ];
  }

let a6 =
  {
    table with
    name = "a6";
    doc = "Network-latency sensitivity";
    title = Fun.const "A6: network-latency sensitivity (Barnes-Hut, 1 step)";
    points = Fun.const [ 0.5; 1.; 2.; 4.; 8. ];
    measure = (fun ~memo:_ conf scale ->
      let nodes = conf.Runconf.breakdown_procs in
      let base = Machine.t3d ~nodes in
      let scaled ns = int_of_float (float_of_int ns *. scale) in
      let machine =
        Machine.make ~nodes
          ~send_overhead_ns:(scaled base.Machine.send_overhead_ns)
          ~recv_overhead_ns:(scaled base.Machine.recv_overhead_ns)
          ~wire_latency_ns:(scaled base.Machine.wire_latency_ns)
          ()
      in
      let sim = bh_sim ~machine ~nsteps:1 conf in
      let blocking = sim Variant.Blocking in
      let dpa = sim (dpa_variant conf ~strip:conf.Runconf.bh_strip) in
      [| dpa; blocking |]);
    columns =
      [
        column "LATENCY x" "latency_scale" (float one_decimal) (fun r -> r.at);
        column "DPA(s)" "dpa_s" (float sec) (elapsed 0);
        column "Blocking(s)" "blocking_s" (float sec) (elapsed 1);
        column "Blocking/DPA" "blocking_over_dpa" (float one_decimal) (fun r ->
            elapsed 1 r /. elapsed 0 r);
      ];
  }

let a7 =
  {
    table with
    name = "a7";
    doc = "Parallel FMM upward pass (reductions)";
    title = Fun.const
        "A7: parallel FMM upward pass via remote reductions (P2M + per-level \
         M2M)";
    points = (fun conf ->
      let strip = conf.Runconf.fmm_strip in
      [
        ("DPA (combining)", dpa_variant conf ~strip);
        ("Pipeline (no combine)", Variant.Prefetch { strip_size = strip });
        ("Caching (put/update)", caching conf);
        ("Blocking", Variant.Blocking);
      ]);
    measure = (fun ~memo:_ conf (_, variant) ->
      let global = upward_global conf in
      let engine = Engine.create (Machine.t3d ~nodes:(upward_nodes conf)) in
      let r = Dpa_fmm.Fmm_upward.run ~engine ~global ~params:(fmm_params conf) variant in
      [| timed ?dpa:r.dpa_stats r.Dpa_fmm.Fmm_upward.breakdown |]);
    columns =
      [
        label "RUNTIME" "runtime";
        time 0;
        msgs 0;
        column "UPDATES COMBINED" "updates_combined" int (fun r ->
            Option.fold ~none:0 ~some:(fun s -> s.Stats.updates_combined) r.runs.(0).dpa);
      ];
  }

let a8 =
  {
    table with
    name = "a8";
    doc = "Adaptive FMM on clustered input";
    title = Fun.const "A8: adaptive FMM on a clustered input (8 Gaussian clusters)";
    points = (fun conf ->
      let dpa = dpa_variant conf ~strip:conf.Runconf.fmm_strip in
      [
        ("adaptive + DPA", (`Adaptive, dpa));
        ("adaptive + Caching", (`Adaptive, caching conf));
        ("adaptive + Blocking", (`Adaptive, Variant.Blocking));
        ("complete tree + DPA", (`Complete, dpa));
      ]);
    measure = (fun ~memo:_ conf (_, (tree, variant)) ->
      let distribution = `Clustered 8 in
      match tree with
      | `Complete -> [| fmm_sim ~distribution conf variant |]
      | `Adaptive ->
        let b, _, _ =
          Dpa_fmm.Afmm_force.run ~params:(fmm_params conf)
            ~nnodes:conf.Runconf.breakdown_procs ~nparticles:conf.Runconf.fmm_particles
            ~distribution ~seed:23 variant
        in
        [| timed b |]);
    columns = [ label "CONFIGURATION" "configuration"; time 0; msgs 0 ];
  }

let a9 =
  let miss header key i =
    column header key (float (pct 2)) (fun r -> r.runs.(i).value)
  in
  {
    table with
    name = "a9";
    doc = "Cache locality of iteration order";
    title = Fun.const
        "A9: single-node cache locality of iteration order (BH cell accesses)";
    points = Fun.const [ 128; 512; 2048 ];
    measure = (fun ~memo:_ conf lines ->
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
      (* One replay of the cell-access trace; its value is the miss
         rate. *)
      let replay order =
        let c = Dcache.create ~lines () in
        Array.iter
          (fun bid ->
            Dpa_bh.Bh_seq.visit_trace tree bodies.(bid) (fun ci ->
                ignore (Dcache.access c ci)))
          order;
        timed ~value:(Dcache.miss_rate c) (Breakdown.zero ~procs:1)
      in
      [| replay random_order; replay tree_order |]);
    columns =
      [
        column "CACHE LINES" "cache_lines" int (fun r -> r.at);
        miss "RANDOM ORDER MISS%" "random_miss_frac" 0;
        miss "TREE ORDER MISS%" "tree_miss_frac" 1;
      ];
  }

let a10 =
  {
    table with
    name = "a10";
    doc = "Hot-spot with link serialization";
    title = Fun.const
        "A10: hot spot (all nodes read node 0) with/without link serialization";
    points = Fun.const
        Dpa.Config.
          [
            ("DPA, contention-free", (false, dpa ()));
            ("DPA, serialized ingress", (true, dpa ()));
            ("Pipeline, contention-free", (false, pipeline_only ()));
            ("Pipeline, serialized ingress", (true, pipeline_only ()));
          ];
    measure = (fun ~memo:_ conf (_, (ingress, config)) ->
      let procs = conf.Runconf.breakdown_procs in
      let nobjs = 256 and items = 64 and reads = 8 in
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
      let b, stats =
        Dpa.Runtime.run_phase_labeled ~label:"hotspot" ~engine ~heaps ~config
          ~items:items_of
      in
      [| timed ~dpa:stats b |]);
    columns = [ label "CONFIGURATION" "configuration"; time 0; msgs 0 ];
  }

(* Fault-free BH force phase per strip mode; all the columns come from the
   phase's [Dpa_stats], so no sink is needed. *)
let a12a =
  {
    table with
    name = "a12a";
    doc = "Adaptive strip size and adaptive RTO vs static";
    title = (fun conf ->
      Printf.sprintf
        "A12a: static vs adaptive strip size — BH force phase (%d nodes)"
        conf.Runconf.breakdown_procs);
    points = (fun _ ->
      List.map
        (fun strip -> (string_of_int strip, Variant.dpa ~strip_size:strip ()))
        [ 10; 25; 50; 100; 300 ]
      @ [ ("auto", Variant.Dpa (Dpa.Config.dpa_auto ())) ]);
    measure = (fun ~memo:_ conf (_, variant) ->
      let nodes = conf.Runconf.breakdown_procs in
      let engine = Engine.create (Machine.make ~nodes ()) in
      Engine.set_fault engine None;
      let r = bh_force_phase conf ~engine variant in
      [| timed ?dpa:r.dpa_stats r.Dpa_bh.Bh_run.breakdown |]);
    columns =
      [
        label "STRIP" "strip";
        time 0;
        dpa_count "FINAL" "final_strip" (fun s -> s.Stats.strip_size_final);
        dpa_count "GROWS" "grows" (fun s -> s.Stats.strip_grows);
        dpa_count "SHRINKS" "shrinks" (fun s -> s.Stats.strip_shrinks);
        dpa_count "PEAK D" "align_peak" (fun s -> s.Stats.align_peak);
        dpa_count "MAX OUT" "max_outstanding" (fun s -> s.Stats.max_outstanding);
      ];
  }

(* -------------------------------------------------------------------- A11 *)

(* Workload runners of the fault matrices (A11-A15): each runs one phase
   under the plan the driver hands it and returns the result the cell is
   checked on. *)

let matrix_config = "dpa"

let bh_force ?adaptive_rto (conf : Runconf.t) plan =
  let nodes = conf.Runconf.breakdown_procs in
  let engine = Matrix.engine ?adaptive_rto ~nodes plan in
  let r =
    bh_force_phase conf ~engine (dpa_variant conf ~strip:conf.Runconf.bh_strip)
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

(* ------------------------------------------------------------------- A12b *)

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
  let fmm_nodes = upward_nodes conf in
  let fmm plan =
    let global = upward_global conf in
    let engine = Matrix.engine ~nodes:fmm_nodes plan in
    let r =
      Dpa_fmm.Fmm_upward.run ~engine ~global ~params:(fmm_params conf)
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
    let g = em3d_graph conf in
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

let scale_print gate rows =
  ignore
    (Table.print
       "A16: flat-heap allocation gate — full BH simulate vs the boxed-heap \
        baseline (allocated words per body-step)"
       scale_gate_columns gate);
  ignore
    (Table.print
       "A16: scale sweep — one distributed BH force phase per row (flat heap)"
       scale_columns rows);
  print_endline (scale_summary gate rows)

let scale_json (gate, rows) =

  Dpa_obs.Json.Obj
    [
      ("bench", Str "scale");
      ("gate_threshold_x", Float scale_gate_threshold);
      ("gate", Table.json_rows scale_gate_columns gate);
      ("scale", Table.json_rows scale_columns rows);
    ]
