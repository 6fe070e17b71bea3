(** Runners for every experiment in DESIGN.md §7 (one per table/figure of
    the paper, plus the ablations). Each returns structured data; its
    [*_columns] list renders the rows as the paper-style table and as
    JSON through {!Table.print}. *)

type timing = {
  procs : int;
  dpa_s : float;
  caching_s : float;
  seq_s : float;  (** modelled sequential time: the speedup denominator *)
  paper_dpa_s : float option;
  paper_caching_s : float option;
}

val bh_times : ?memo:bool -> Runconf.t -> timing list
(** T2: Barnes-Hut, DPA(strip) vs software caching across processor counts.
    Rows are memoized for the life of the process, keyed by the
    configuration (its [procs] list aside) and the processor count, so a
    later call for the same rows (F4, A2's reference footer) runs no phase
    again. The key leaves out process-wide settings ({!Dpa_sim.Fault}'s
    global plan, the default RTO mode), which one [dpa_bench] command sets
    once. [~memo:false] runs every phase and leaves the memo alone. *)

val fmm_times : ?memo:bool -> Runconf.t -> timing list
(** T3: FMM, memoized as {!bh_times}. *)

val times_columns : timing Table.column list

type breakdown_bar = {
  variant : string;
  breakdown : Dpa_sim.Breakdown.t;
  speedup : float;
}

val bh_breakdown : Runconf.t -> breakdown_bar list
(** F1: Blocking / Caching / pipeline / pipeline+agg / full DPA on the
    breakdown node count. *)

val fmm_breakdown : Runconf.t -> breakdown_bar list
(** F2 (the paper's FMM figure uses strip 300). *)

val print_breakdown : title:string -> breakdown_bar list -> Dpa_obs.Json.t
(** Prints the bars under [title]; returns the rows as {!Table.json}. *)

type strip_point = {
  strip : int;
  bh_s : float;
  fmm_s : float;
  bh_outstanding : int;
  bh_align_peak : int;
  bh_max_batch : int;
}

val strip_sweep : ?strips:int list -> Runconf.t -> strip_point list
(** F3: strip-size sensitivity on the breakdown node count. *)

val strip_columns : strip_point Table.column list

type speedup_row = {
  procs : int;
  bh_speedup : float;
  fmm_speedup : float;
}

val speedups : bh:timing list -> fmm:timing list -> speedup_row list
(** F4, derived from T2/T3 data. *)

val speedup_columns : speedup_row Table.column list

type stats_row = {
  name : string;
  static_sites : int;  (** static thread creation sites *)
  dynamic_threads : int;  (** thread records created at run time *)
  max_outstanding : int;
  align_peak : int;
  max_batch : int;
  request_msgs : int;
}

val thread_stats : Runconf.t -> stats_row list
(** T1: static/dynamic thread statistics for BH, FMM and the compiler
    examples. *)

val stats_columns : stats_row Table.column list

type agg_point = { agg : int; time_s : float; msgs : int; max_batch : int }

val agg_sweep : ?aggs:int list -> Runconf.t -> agg_point list
(** A1: aggregation-bound ablation on Barnes-Hut. *)

val agg_columns : agg_point Table.column list

type cache_point = {
  capacity : int;
  time_s : float;
  hits : int;
  misses : int;
  evictions : int;
}

val cache_sweep : ?capacities:int list -> Runconf.t -> cache_point list
(** A2: caching-baseline cache-size ablation on Barnes-Hut. *)

val cache_columns : cache_point Table.column list

type dist_point = {
  dist_name : string;
  dist_time_s : float;
  dist_idle_frac : float;
  dist_msgs : int;
}

val distribution_sweep : Runconf.t -> dist_point list
(** A3: FMM under uniform vs clustered particle distributions — the load
    imbalance a Morton block partition suffers on non-uniform inputs. *)

val dist_columns : dist_point Table.column list

type partition_point = {
  part_name : string;
  part_time_s : float;
  part_idle_frac : float;
}

val partition_sweep : Runconf.t -> partition_point list
(** A4: Barnes-Hut under equal-count blocks vs cost-weighted "costzones"
    partitioning, on the breakdown node count. *)

val partition_columns : partition_point Table.column list

type em3d_point = {
  em3d_variant : string;
  em3d_time_s : float;
  em3d_msgs : int;
  em3d_checksum : float;
}

val em3d_sweep : Runconf.t -> em3d_point list
(** A5: the EM3D irregular-graph kernel under DPA / caching / blocking.
    All three must report the same checksum. *)

val em3d_columns : em3d_point Table.column list

type latency_point = {
  lat_scale : float;  (** multiplier on wire latency and message overheads *)
  lat_dpa_s : float;
  lat_blocking_s : float;
}

val latency_sweep : ?scales:float list -> Runconf.t -> latency_point list
(** A6: machine-latency sensitivity on Barnes-Hut — DPA's advantage over
    blocking must grow with latency (the "robust memory performance"
    claim). *)

val latency_columns : latency_point Table.column list

type upward_point = {
  up_variant : string;
  up_time_s : float;
  up_msgs : int;
  up_combined : int;
}

val upward_sweep : Runconf.t -> upward_point list
(** A7: the parallel FMM upward pass (remote reductions) under DPA,
    pipelining (no combining) and the baselines. Runs on an odd node count
    so Morton blocks split some sibling groups (with power-of-two counts on
    a complete quadtree every parent is co-located and no M2M is remote). *)

val upward_columns : upward_point Table.column list

type afmm_point = {
  af_variant : string;
  af_time_s : float;
  af_msgs : int;
}

val afmm_sweep : Runconf.t -> afmm_point list
(** A8: the *adaptive* FMM (the SPLASH-2 formulation) on a clustered input
    under the runtimes, plus the complete-tree FMM on the same input for
    contrast. *)

val afmm_columns : afmm_point Table.column list

type cache_locality_point = {
  cl_lines : int;
  cl_random_miss : float;  (** miss rate, random body order *)
  cl_tree_miss : float;  (** miss rate, tree (Morton) body order *)
}

val cache_locality : ?lines:int list -> Runconf.t -> cache_locality_point list
(** A9: the single-node cache-locality effect of iteration reordering (§6's
    connection to Philbin et al.): the Barnes-Hut cell-access trace through
    a hardware cache model, with bodies visited in random vs tree order
    (tree order is what strip-mining over the aligned traversals yields). *)

val locality_columns : cache_locality_point Table.column list

type hotspot_point = {
  hs_config : string;
  hs_time_s : float;
  hs_msgs : int;
}

val hotspot : Runconf.t -> hotspot_point list
(** A10: a hot-spot workload (every node reads objects owned by node 0)
    with contention-free vs ingress-serialized links, under full DPA and
    pipelining-only. Aggregation's value grows when the hot node's link
    serializes messages. *)

val hotspot_columns : hotspot_point Table.column list

type adaptive_strip_point = {
  as_mode : string;  (** static strip size, or ["auto"] *)
  as_time_s : float;
  as_final_strip : int;  (** strip size in force when the phase ended *)
  as_grows : int;
  as_shrinks : int;
  as_peak_d : int;
  as_max_out : int;
}

val adaptive_strip_sweep :
  ?strips:int list -> Runconf.t -> adaptive_strip_point list
(** A12a: the fault-free BH force phase on the breakdown node count, once
    per static strip size and once under {!Dpa.Config.dpa_auto} — does
    the controller land near the best static setting without being told
    it? *)

val adaptive_strip_columns : adaptive_strip_point Table.column list

(** The fault matrices A11–A15. Each is a {!Matrix.t} declaration: run it with {!Matrix.run}, print it
    with {!Matrix.print} and check it with {!Matrix.failures}. Every cell
    is one {!Matrix.cell}: a workload × configuration × schedule with its
    modelled time, an ordered counter map and [bit_identical] — its result
    equal to the workload's fault-free reference run (the first
    configuration under no plan). Single-configuration matrices label it
    ["dpa"]. Counters are the standard set documented on {!Matrix.cell};
    A15 adds [msgs], [opt_actual] and [opt_bound]. A crash schedule draws
    one crash per node from the reference run's duration
    ({!Matrix.crash_knobs}), so every crash lands mid-phase. *)

val chaos_sweep : Runconf.t -> Matrix.t
(** A11: the BH force phase on the breakdown node count under a sweep of
    fault plans (off, 1/5/10% drop, the heavy preset): goodput,
    retransmits, runtime re-issues, drops and suppressed duplicates — and
    bit-identical forces under every plan, the reliable-delivery
    protocol's headline correctness claim. *)

val adaptive_rto_sweep : Runconf.t -> Matrix.t
(** A12b: the BH force phase under the heavy plan, with the end-to-end
    timeout wheel on its constant worst-case base (config ["constant"])
    vs the transport's round-trip estimator (["adaptive"],
    {!Dpa_sim.Machine.adaptive_rto}). Correctness is unchanged either way;
    RT RETRIES shows how many spurious re-issues the estimator avoids. *)

val crash_matrix : Runconf.t -> Matrix.t
(** A13: the BH force phase, the FMM upward-pass reduction and the
    compiler-driven EM3D kernel, each fault-free, under
    drop+dup+delay, under one crash-restart per node, and under
    heavy+crash. Reads re-fetch through the alignment path after a
    restart, updates are journaled exactly-once, and the reductions are
    grid-snapped, so every cell must be bit-identical (DESIGN.md §13).
    Witness: crash-restarts executed. *)

val integrity_matrix : Runconf.t -> Matrix.t
(** A14: the A13 workloads plus an accumulate-heavy reduction, each
    fault-free, under wire corruption ([corrupt=0.05]: CRC-32 frames
    fenced at the NIC, recovered by retransmission), under torn WAL
    writes on a crash schedule ([torn-wal=1]: the restart scan truncates
    the damaged tail and repairs it from the doublewrite slot), and all of
    it stacked on the heavy preset. Witnesses: corruptions dropped and
    WAL records truncated (DESIGN.md §13). *)

val optimality_matrix : Runconf.t -> Matrix.t
(** A15: a fan-in reduction (every counter owned by node 0) run ["flat"]
    and ["routed"] through the binomial tree ({!Dpa.Config.All_dsts}), and
    a two-step Barnes-Hut run ["static"] vs ["repartitioned"] by measured
    per-body work — under fault-free, heavy and crash-bearing schedules.
    MSGS counts update messages on the fan-in, step-2 request messages on
    Barnes-Hut; ACTUAL and BOUND are the phase's measured communication
    volume and its optimality bound (DESIGN.md §14). On the BH row, TIME
    and REISSUES cover both steps while MSGS, ACTUAL and BOUND are step 2
    only. Witnesses: both optimizations strictly lower the fault-free
    ratio, and the routed crash cells execute custody re-issues
    (DESIGN.md §15). {!Matrix.json} of it is the
    [BENCH_comm_optimality.json] artifact. *)

type scale_gate_row = {
  sg_nodes : int;
  sg_bodies : int;
  sg_steps : int;
  sg_wall_s : float;
  sg_words : float;  (** allocated words per body-step, flat heap *)
  sg_boxed_words : float;  (** same metric, boxed seed (embedded constant) *)
  sg_majors : int;
}

type scale_row = {
  sc_nodes : int;
  sc_bodies : int;
  sc_wall_s : float;
  sc_words_per_body : float;
  sc_majors : int;
  sc_bytes_moved : int;  (** total bytes injected on the simulated wire *)
}

val scale_gate : Runconf.t -> scale_gate_row list
(** A16 part 1: full [Bh_run.simulate] on the three configurations the
    boxed baseline was measured on, reporting allocated words per
    body-step against the embedded pre-refactor constants
    (docs/PERFORMANCE.md). *)

val scale_sweep : Runconf.t -> scale_row list
(** A16 part 2: one distributed Barnes-Hut force phase per row at
    growing scale — up to a million bodies on 256 nodes at [--scale
    full] — reporting wall time, allocated words per body, major
    collections and bytes moved on the simulated wire. *)

val scale_gate_columns : scale_gate_row Table.column list
val scale_columns : scale_row Table.column list

val scale_failures : scale_gate_row list -> string list
(** One message per gate row whose boxed/flat words reduction is below
    the committed 5x threshold BENCH_scale.json is gated on. *)

val scale_summary : scale_gate_row list -> scale_row list -> string
(** The ["a16 summary:"] line. *)

val scale_json : scale_gate_row list * scale_row list -> Dpa_obs.Json.t
(** The sweep as JSON (the [BENCH_scale.json] artifact): the two tables'
    rows under ["gate"] and ["scale"], after the threshold. *)
