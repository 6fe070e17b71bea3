(** Runners for every experiment in DESIGN.md §7 (one per table/figure of
    the paper, plus the ablations). A table experiment is one {!sweep}
    declaration: its points, the phases each point runs and the columns
    that read them. {!rows} runs it and {!print} renders it as the
    paper-style table (or bars) and as JSON through {!Table.print}. The
    fault matrices A11–A15 are {!Matrix.t} declarations. *)

type run = {
  breakdown : Dpa_sim.Breakdown.t;
  dpa : Dpa.Dpa_stats.t option;  (** DPA and Prefetch variants *)
  cache : Dpa_baselines.Caching.stats option;  (** Caching and Blocking *)
  seq_s : float;
      (** modelled sequential time of the same input: the speedup
          denominator (BH and FMM force phases; 0 elsewhere) *)
  value : float;  (** A5's checksum, A9's miss rate; 0 elsewhere *)
}
(** One timed phase, or for A9 one replay of a cache trace. *)

type 'a row = { at : 'a; runs : run array }
(** One point and its runs, in run order. *)

type 'a sweep = {
  name : string;  (** the [dpa_bench] command *)
  doc : string;  (** its one-line help *)
  title : Runconf.t -> string;
  points : Runconf.t -> 'a list;  (** the rows, in order *)
  measure : memo:bool -> Runconf.t -> 'a -> run array;
      (** the runs of one point, run in array order *)
  columns : 'a row Table.column list;
  footer : (Runconf.t -> string) option;
      (** a line under the table, computed before the rows run *)
  bars : ('a -> string) option;
      (** print the rows as breakdown bars with this label instead of a
          table; the columns then give only the JSON *)
}

val rows : ?memo:bool -> ?points:'a list -> 'a sweep -> Runconf.t -> 'a row list
(** Runs the sweep's [points] (default [s.points conf]) in order. Runs of
    the scale's default Barnes-Hut and FMM inputs are memoized for the life
    of the process, keyed by the workload, the configuration (its [procs]
    list aside), the node count and the variant, so a later table that
    needs the same phase (F4 after T2, A2's footer) does not run it again.
    The key leaves out process-wide settings ({!Dpa_sim.Fault}'s global
    plan, the default RTO mode), which one [dpa_bench] command sets once.
    [~memo:false] runs every phase and leaves the memo alone. *)

val print : 'a sweep -> Runconf.t -> Dpa_obs.Json.t
(** Prints the title, the table (or bars) of {!rows} and the footer;
    returns the table's {!Table.json}. *)

val t1 : (string * int * [ `Bh | `Fmm ] option) sweep
(** T1: static/dynamic thread statistics for BH, FMM and the compiler
    examples; a point is a program, its static thread-creation sites and
    the workload it runs, if any. *)

val t2 : (int * float option * float option) sweep
(** T2: Barnes-Hut, DPA(strip) vs software caching across processor
    counts; a point is a count with the paper's DPA and caching times
    (full scale only). *)

val t3 : (int * float option * float option) sweep
(** T3: FMM, as {!t2}. *)

val f1 : (string * Dpa_baselines.Variant.t) sweep
(** F1: Blocking / Caching / pipeline / pipeline+agg / full DPA on the
    breakdown node count. *)

val f2 : (string * Dpa_baselines.Variant.t) sweep
(** F2 (the paper's FMM figure uses strip 300). *)

val f3 : int sweep
(** F3: strip-size sensitivity on the breakdown node count; runs BH, then
    FMM. *)

val f4 : int sweep
(** F4: DPA speedups of BH, then FMM, per processor count. *)

val a1 : int sweep
(** A1: aggregation-bound ablation on Barnes-Hut. *)

val a2 : int sweep
(** A2: caching-baseline cache-size ablation on Barnes-Hut, with the DPA
    time as a footer. *)

val a3 : (string * [ `Uniform | `Clustered of int ]) sweep
(** A3: FMM under uniform vs clustered particle distributions — the load
    imbalance a Morton block partition suffers on non-uniform inputs. *)

val a4 : (string * [ `Block | `Costzones ]) sweep
(** A4: Barnes-Hut under equal-count blocks vs cost-weighted "costzones"
    partitioning, on the breakdown node count. *)

val a5 : (string * Dpa_baselines.Variant.t) sweep
(** A5: the EM3D irregular-graph kernel under DPA / caching / blocking.
    All three must report the same checksum. *)

val a6 : float sweep
(** A6: machine-latency sensitivity on Barnes-Hut (a point multiplies wire
    latency and message overheads; runs blocking, then DPA) — DPA's
    advantage over blocking must grow with latency (the "robust memory
    performance" claim). *)

val a7 : (string * Dpa_baselines.Variant.t) sweep
(** A7: the parallel FMM upward pass (remote reductions) under DPA,
    pipelining (no combining) and the baselines. Runs on an odd node count
    so Morton blocks split some sibling groups (with power-of-two counts on
    a complete quadtree every parent is co-located and no M2M is remote). *)

val a8 :
  (string * ([ `Adaptive | `Complete ] * Dpa_baselines.Variant.t)) sweep
(** A8: the *adaptive* FMM (the SPLASH-2 formulation) on a clustered input
    under the runtimes, plus the complete-tree FMM on the same input for
    contrast. *)

val a9 : int sweep
(** A9: the single-node cache-locality effect of iteration reordering (§6's
    connection to Philbin et al.): the Barnes-Hut cell-access trace through
    a hardware cache model of a point's line count, with bodies visited in
    random (run 0) vs tree (run 1) order (tree order is what strip-mining
    over the aligned traversals yields). *)

val a10 : (string * (bool * Dpa.Config.t)) sweep
(** A10: a hot-spot workload (every node reads objects owned by node 0)
    with contention-free vs ingress-serialized links, under full DPA and
    pipelining-only. Aggregation's value grows when the hot node's link
    serializes messages. *)

val a12a : (string * Dpa_baselines.Variant.t) sweep
(** A12a: the fault-free BH force phase on the breakdown node count, once
    per static strip size and once under {!Dpa.Config.dpa_auto} — does
    the controller land near the best static setting without being told
    it? *)

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

val scale_failures : scale_gate_row list -> string list
(** One message per gate row whose boxed/flat words reduction is below
    the committed 5x threshold BENCH_scale.json is gated on. *)

val scale_print : scale_gate_row list -> scale_row list -> unit
(** Prints the two tables and the ["a16 summary:"] line. *)


val scale_json : scale_gate_row list * scale_row list -> Dpa_obs.Json.t
(** The sweep as JSON (the [BENCH_scale.json] artifact): the two tables'
    rows under ["gate"] and ["scale"], after the threshold. *)
