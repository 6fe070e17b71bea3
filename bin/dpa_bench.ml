(* Command-line driver: regenerate each table/figure of the paper
   (see DESIGN.md §7 for the experiment index). *)

open Cmdliner
open Dpa_harness

(* Observability flags shared by every subcommand.  When any is given, a
   global sink is installed for the duration of the run (picked up by
   [Dpa_sim.Engine.create]) and the requested exports are written
   afterwards. *)
type obs_opts = {
  trace : string option;
  metrics : string option;
  events : string option;
  critpath : string option;
  profile : bool;
  cats : string list option;
  spans_only : bool;
  sample_ns : int;
  ring : int;
}

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace_event JSON file (open with Perfetto or \
             chrome://tracing; one track per simulated node).")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write a JSON metrics dump (counters, per-phase histograms \
             with p50/p90/p99, Dpa_stats).")
  in
  let events =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"FILE"
          ~doc:
            "Stream the raw event stream as JSON lines (one event per line). \
             Events are written as the run emits them — flushed at every \
             phase barrier and on teardown, so a crashed run keeps \
             everything flushed before the crash and the file is not \
             bounded by the in-memory ring.")
  in
  let critpath =
    Arg.(
      value
      & opt (some string) None
      & info [ "critical-path" ] ~docv:"FILE"
          ~doc:
            "Enable causal tracing and write a per-phase critical-path JSON \
             report: the longest happens-before chain through each labeled \
             phase, decomposed into compute / alignment-wait / wire / \
             owner-queue / retransmit / refetch time, plus the phase's \
             communication-optimality ratio. Also stamps span_id/parent \
             args on emitted events and flow pairs on message flights (see \
             docs/OBSERVABILITY.md).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"Print a human-readable per-phase profile after the run.")
  in
  let cats =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "trace-cats" ] ~docv:"CAT,CAT,..."
          ~doc:
            "Keep only spans and instants of the listed categories (phase, \
             strip, runtime, ctrl, msg, sim, fault). Sampled counter tracks \
             are always kept — their $(b,counter) category is synthetic, so \
             listing it is never necessary. Default: all.")
  in
  let spans_only =
    Arg.(
      value & flag
      & info [ "spans-only" ]
          ~doc:
            "Record spans only: instants and counter samples are dropped at \
             emission. Keeps chaos-run traces tractable.")
  in
  let sample_ns =
    Arg.(
      value & opt int 0
      & info [ "sample-ns" ] ~docv:"NS"
          ~doc:
            "Emit fixed-rate per-node counter tracks (outstanding threads, \
             D-buffer occupancy) every $(docv) of sim-time. 0 disables.")
  in
  let ring =
    Arg.(
      value
      & opt int Dpa_obs.Sink.default_capacity
      & info [ "ring" ] ~docv:"N"
          ~doc:
            "Capacity of the in-memory instant/counter ring (the flight \
             recorder). With $(b,--events) the ring only bounds the \
             in-memory snapshot, not the streamed file.")
  in
  let combine trace metrics events critpath profile cats spans_only sample_ns
      ring =
    {
      trace;
      metrics;
      events;
      critpath;
      profile;
      cats;
      spans_only;
      sample_ns;
      ring;
    }
  in
  Term.(
    const combine $ trace $ metrics $ events $ critpath $ profile $ cats
    $ spans_only $ sample_ns $ ring)

let open_or_die path =
  try (path, open_out path)
  with Sys_error e ->
    prerr_endline ("dpa_bench: " ^ e);
    exit 1

(* Write [render ()] to an output [open_or_die] opened, and log it. *)
let finish what render = function
  | None -> ()
  | Some (path, oc) ->
    output_string oc (render ());
    close_out oc;
    Printf.printf "wrote %s to %s\n" what path

let with_obs obs f conf =
  (if obs.ring <= 0 then begin
     prerr_endline "dpa_bench: --ring must be positive";
     exit 1
   end);
  if
    obs.trace = None && obs.metrics = None && obs.events = None
    && obs.critpath = None && not obs.profile
  then f conf
  else begin
    (* Open every output file before the (possibly long) run so a bad path
       fails immediately rather than after the experiment finishes. *)
    let trace_out = Option.map open_or_die obs.trace in
    let metrics_out = Option.map open_or_die obs.metrics in
    let events_out = Option.map open_or_die obs.events in
    let critpath_out = Option.map open_or_die obs.critpath in
    let sink = Dpa_obs.Sink.create ~capacity:obs.ring () in
    if obs.critpath <> None then
      Dpa_obs.Sink.set_causal sink (Some (Dpa_obs.Causal.create ()));
    Dpa_obs.Sink.set_categories sink obs.cats;
    Dpa_obs.Sink.set_spans_only sink obs.spans_only;
    (if obs.sample_ns < 0 then begin
       prerr_endline "dpa_bench: --sample-ns must be non-negative";
       exit 1
     end);
    Dpa_obs.Sink.set_sample_period sink obs.sample_ns;
    (* [--events] streams: every event goes to the file as the run emits
       it (flushed at phase barriers), so the ring capacity no longer
       bounds the log and a mid-run crash keeps everything flushed. *)
    (match events_out with
    | Some (_, oc) -> Dpa_obs.Sink.attach_writer sink (Dpa_obs.Export.jsonl_writer oc)
    | None -> ());
    Dpa_obs.Sink.set_global (Some sink);
    Fun.protect
      ~finally:(fun () ->
        (* Runs even when [f] raises: the stream stays durable up to the
           last event emitted before the failure. *)
        Dpa_obs.Sink.close_writer sink;
        Dpa_obs.Sink.set_global None)
      (fun () -> f conf);
    finish "Chrome trace" (fun () -> Dpa_obs.Export.chrome_trace sink) trace_out;
    finish "metrics"
      (fun () -> Dpa_obs.Json.to_string (Dpa_obs.Export.metrics_json sink))
      metrics_out;
    (match events_out with
    | None -> ()
    | Some (path, _) ->
      (* Already streamed and closed by the [Fun.protect] finaliser. *)
      Printf.printf "wrote event log to %s (%d events)\n" path
        (Dpa_obs.Sink.streamed sink));
    (match (critpath_out, Dpa_obs.Sink.causal sink) with
    | Some (path, oc), Some c ->
      let report = Dpa_obs.Critpath.report_json c in
      output_string oc (Dpa_obs.Json.to_string report);
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote critical-path report to %s (%d phases)\n" path
        (List.length (Dpa_obs.Causal.results c))
    | _ -> ());
    if obs.profile then print_string (Dpa_obs.Export.profile sink);
    let nfiltered = Dpa_obs.Sink.filtered sink in
    if nfiltered > 0 then
      Printf.printf "(%d events filtered by --trace-cats/--spans-only)\n"
        nfiltered
  end

(* Fault-injection flags shared by every subcommand: install a process-wide
   fault plan (picked up, like the sink, by [Dpa_sim.Engine.create]) for
   the duration of the run. *)
type fault_opts = { fault_spec : string option; fault_seed : int }

let fault_term =
  let spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject deterministic network faults: a preset ($(b,none), \
             $(b,light), $(b,heavy)) or a comma list of knobs \
             (drop=P, dup=P, delay=P, jitter=NS, outages=N, outage=NS, \
             crashes=N, crash=NS, horizon=NS, slow-node=ID, \
             slow-factor=F, corrupt=P, torn-wal=P). A preset may lead the \
             list and the knobs override it, e.g. $(b,heavy,crashes=1). \
             Enables the reliable-delivery protocol (acks, dedup, \
             retransmission); $(b,crashes) additionally fail-stops each \
             node N times inside the horizon, wiping its volatile state \
             for crash=NS before it restarts and re-fetches; \
             $(b,corrupt) flips a bit in that fraction of wire copies \
             (fenced by the frame checksum at the NIC); $(b,torn-wal) \
             makes each crash damage the victim's durable-log tails with \
             that probability, repaired at restart from the doublewrite \
             slot (see docs/FAULTS.md).")
  in
  let seed =
    Arg.(
      value & opt int 0x5EED
      & info [ "fault-seed" ] ~docv:"N"
          ~doc:
            "Seed for the fault plan's RNG streams; the same seed replays \
             the same drops, duplicates and outages.")
  in
  Term.(const (fun fault_spec fault_seed -> { fault_spec; fault_seed }) $ spec $ seed)

let with_faults fo f conf =
  match fo.fault_spec with
  | None -> f conf
  | Some s -> (
    match Dpa_sim.Fault.spec_of_string s with
    | Error msg ->
      prerr_endline ("dpa_bench: --faults: " ^ msg);
      exit 1
    | Ok spec ->
      Dpa_sim.Fault.set_global ~seed:fo.fault_seed (Some spec);
      Fun.protect
        ~finally:(fun () -> Dpa_sim.Fault.set_global None)
        (fun () -> f conf))

(* A count flag: anything but a positive integer is a usage error naming
   the flag, not an exception from deep inside the run. *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let conf_term =
  let scale =
    Arg.(
      value
      & opt (enum [ ("small", `Small); ("full", `Full) ]) `Small
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:"Experiment scale: $(b,small) (seconds) or $(b,full) (the \
                paper's configuration; minutes of host time).")
  in
  let procs =
    Arg.(
      value
      & opt (some (list positive)) None
      & info [ "procs" ] ~docv:"P,P,..." ~doc:"Override the processor counts.")
  in
  let bodies =
    Arg.(
      value
      & opt (some positive) None
      & info [ "bodies" ] ~docv:"N" ~doc:"Override the Barnes-Hut body count.")
  in
  let particles =
    Arg.(
      value
      & opt (some positive) None
      & info [ "particles" ] ~docv:"N" ~doc:"Override the FMM particle count.")
  in
  let strip =
    Arg.(
      value
      & opt (some string) None
      & info [ "strip" ] ~docv:"N|auto"
          ~doc:
            "Override the strip size: a static count, or $(b,auto) for the \
             adaptive controller (each strip boundary doubles or halves the \
             next strip from alignment-buffer occupancy and idle fraction; \
             see the $(b,a12) experiment).")
  in
  let rto =
    Arg.(
      value
      & opt (enum [ ("const", false); ("adaptive", true) ]) true
      & info [ "rto" ] ~docv:"POLICY"
          ~doc:
            "Retransmission-timeout policy under $(b,--faults): \
             $(b,adaptive) (the default; Jacobson-Karels round-trip \
             estimation) or $(b,const) (the constant worst-case formula).")
  in
  let repartition =
    Arg.(
      value & flag
      & info [ "repartition" ]
          ~doc:
            "Barnes-Hut: re-cut ownership along Morton order between steps \
             by each body's measured traversal work instead of keeping the \
             step-1 partition. Bit-identical forces, different schedule \
             (see the $(b,a15) experiment).")
  in
  let agg_route =
    Arg.(
      value & flag
      & info [ "agg-route" ]
          ~doc:
            "Route remote accumulates through the binomial reduction tree, \
             combining en route, instead of sending every node's batches \
             straight to the owner. Bit-identical results (the update \
             grids are fixed-point) under every fault schedule, \
             $(b,crashes=) plans included: routed batches stay under \
             origin custody until the owner's end-to-end ack (see the \
             $(b,a15) experiment).")
  in
  let combine scale procs bodies particles strip rto repartition agg_route =
    Dpa_sim.Machine.set_default_adaptive_rto rto;
    let c = match scale with `Small -> Runconf.small | `Full -> Runconf.full in
    let c = match procs with Some p -> { c with Runconf.procs = p } | None -> c in
    let c =
      match bodies with Some n -> { c with Runconf.bh_bodies = n } | None -> c
    in
    let c =
      match strip with
      | None -> c
      | Some "auto" -> { c with Runconf.strip_auto = true }
      | Some s -> (
        match int_of_string_opt s with
        | Some n when n > 0 ->
          { c with Runconf.bh_strip = n; Runconf.fmm_strip = n }
        | _ ->
          prerr_endline
            "dpa_bench: --strip expects a positive integer or 'auto'";
          exit 1)
    in
    let c =
      match particles with
      | Some n -> { c with Runconf.fmm_particles = n }
      | None -> c
    in
    { c with Runconf.repartition; Runconf.route_all = agg_route }
  in
  Term.(
    const combine $ scale $ procs $ bodies $ particles $ strip $ rto
    $ repartition $ agg_route)

(* Gate failures: diverged matrix cells, matrix witnesses that do not
   hold, a failed a16 allocation gate. The process exits 1 after the run
   when any were recorded, so every requested export is still written. *)
let failures = ref []
let fail msgs = failures := !failures @ msgs

(* [--json FILE], on every experiment command and [all]. *)
let json_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Also write the results as JSON: each printed table as its title \
           and rows, a fault matrix as its cells, and $(b,all) as one \
           object keyed by experiment (the committed BENCH_*.json \
           artifacts are a15's and a16's at $(b,--scale full)).")

(* Open the [--json] file before the run so a bad path fails
   immediately; [f] runs the experiment and returns the JSON to write. *)
let with_json what f json conf =
  let out = Option.map open_or_die json in
  let v = f conf in
  finish what (fun () -> Dpa_obs.Json.to_string v ^ "\n") out

(* A table experiment: its command, its doc, what the [--json] log line
   calls its results (its command), and a run that prints the table and
   returns it as a one-table list. *)
let sweep (s : _ Experiment.sweep) =
  (s.name, s.doc, s.name, fun conf -> Dpa_obs.Json.List [ Experiment.print s conf ])

(* Run, print and check one fault matrix; returns its JSON. *)
let run_matrix m =
  let cells = Matrix.run m in
  Matrix.print m cells;
  fail (Matrix.failures m cells);
  Matrix.json m cells

(* Every experiment, in the order [all] runs them: its command, its doc,
   what the [--json] log line calls its results (a table experiment's,
   its command), and a run that prints its tables and returns their
   JSON. *)
let experiments =
  let open Experiment in
  [
    sweep t1;
    sweep t2;
    sweep t3;
    sweep f1;
    sweep f2;
    sweep f3;
    sweep f4;
    sweep a1;
    sweep a2;
    sweep a3;
    sweep a4;
    sweep a5;
    sweep a6;
    sweep a7;
    sweep a8;
    sweep a9;
    sweep a10;
    ( "a11",
      "Chaos sweep: faults vs goodput and correctness",
      "chaos sweep",
      fun conf -> run_matrix (chaos_sweep conf) );
    ( "a12",
      a12a.doc,
      "adaptive RTO matrix",
      fun conf ->
        ignore (print a12a conf);
        run_matrix (adaptive_rto_sweep conf) );
    ( "a13",
      "Crash-restart chaos matrix across workloads",
      "crash matrix",
      fun conf -> run_matrix (crash_matrix conf) );
    ( "a14",
      "End-to-end integrity matrix: wire corruption and torn WAL writes \
       across workloads",
      "integrity matrix",
      fun conf -> run_matrix (integrity_matrix conf) );
    ( "a15",
      "Communication-optimality matrix: tree-routed aggregation and Morton \
       repartitioning vs the flat/static baseline",
      "optimality matrix",
      fun conf -> run_matrix (optimality_matrix conf) );
    ( "a16",
      "Flat-heap scale sweep: the allocation gate against the boxed-heap \
       baseline, then distributed BH force phases up to a million bodies \
       on 256 nodes (--scale full)",
      "scale sweep",
      fun conf ->
        let rows = scale_sweep conf in
        let gate = scale_gate conf in
        scale_print gate rows;

        fail (scale_failures gate);
        scale_json (gate, rows) );
  ]

let run_timeline csv conf =
  let nnodes = conf.Runconf.breakdown_procs in
  let show variant =
    let bodies = Dpa_bh.Plummer.generate ~n:conf.Runconf.bh_bodies ~seed:17 in
    let octree = Dpa_bh.Octree.build bodies in
    let tree = Dpa_bh.Bh_global.distribute octree ~nnodes in
    let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:nnodes) in
    let trace = Dpa_sim.Trace.attach engine in
    ignore
      (Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
         ~params:Dpa_bh.Bh_force.default_params variant);
    Dpa_sim.Trace.detach trace;
    Printf.printf "%s\n%s\n"
      (Dpa_baselines.Variant.name variant)
      (Dpa_sim.Trace.timeline trace);
    trace
  in
  let t_dpa =
    show (Dpa_baselines.Variant.dpa ~strip_size:conf.Runconf.bh_strip ())
  in
  let (_ : Dpa_sim.Trace.t) = show Dpa_baselines.Variant.Blocking in
  match csv with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Dpa_sim.Trace.to_csv t_dpa);
    close_out oc;
    Printf.printf "wrote DPA trace to %s\n" path

let run_calibrate conf =
  Printf.printf "Machine model calibration (%s scale)\n" conf.Runconf.name;
  let bodies = Dpa_bh.Plummer.generate ~n:conf.Runconf.bh_bodies ~seed:17 in
  let tree = Dpa_bh.Octree.build bodies in
  let counts = Dpa_bh.Bh_seq.compute_forces ~theta:1.0 tree in
  let ns =
    conf.Runconf.bh_steps
    * Dpa_bh.Bh_run.sequential_ns ~params:Dpa_bh.Bh_force.default_params counts
  in
  Printf.printf
    "BH  %d bodies x %d step(s): %d visits, %d body-cell, %d body-body -> \
     modelled sequential %.2f s (paper: %.2f s at 16384x4)\n"
    conf.Runconf.bh_bodies conf.Runconf.bh_steps
    (conf.Runconf.bh_steps * counts.Dpa_bh.Bh_seq.cell_visits)
    (conf.Runconf.bh_steps * counts.Dpa_bh.Bh_seq.body_cell)
    (conf.Runconf.bh_steps * counts.Dpa_bh.Bh_seq.body_body)
    (float_of_int ns *. 1e-9) Paper.bh_seq_s;
  let parts = Dpa_fmm.Particle2d.uniform ~n:conf.Runconf.fmm_particles ~seed:23 in
  let qtree = Dpa_fmm.Quadtree.build parts in
  let fcounts = Dpa_fmm.Fmm_run.structural_counts qtree in
  let params =
    { Dpa_fmm.Fmm_force.default_params with Dpa_fmm.Fmm_force.p = conf.Runconf.fmm_p }
  in
  let fns = Dpa_fmm.Fmm_run.sequential_ns ~params fcounts in
  Printf.printf
    "FMM %d particles p=%d depth=%d: %d M2L, %d evals, %d p2p -> modelled \
     sequential %.2f s (paper: %.2f s at 32768 p=29)\n"
    conf.Runconf.fmm_particles conf.Runconf.fmm_p
    (Dpa_fmm.Quadtree.depth qtree) fcounts.Dpa_fmm.Fmm_seq.m2l
    fcounts.Dpa_fmm.Fmm_seq.evals fcounts.Dpa_fmm.Fmm_seq.p2p
    (float_of_int fns *. 1e-9) Paper.fmm_seq_s


(* Every experiment after the calibration; the JSON of each, keyed by its
   command. *)
let run_all conf =
  run_calibrate conf;
  print_newline ();
  Dpa_obs.Json.Obj
    (List.map (fun (name, _, _, run) -> (name, run conf)) experiments)

(* [run] (a term, so it can carry its own flags) under the shared fault,
   observability and configuration flags. *)
let with_flags run =
  Term.(
    const (fun run fo obs conf -> with_faults fo (with_obs obs run) conf)
    $ run $ fault_term $ obs_term $ conf_term)

(* A run whose results [--json] writes. *)
let json_run what run = Term.(const (with_json what run) $ json_term)

let cmd name doc run = Cmd.v (Cmd.info name ~doc) (with_flags run)

let () =
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the DPA run's raw trace as CSV.")
  in
  let commands =
    List.map
      (fun (name, doc, what, run) -> cmd name doc (json_run what run))
      experiments
    @ [
        cmd "timeline" "Per-node utilization timelines (Barnes-Hut)"
          Term.(const run_timeline $ csv);
        cmd "calibrate" "Compare modelled sequential times to the paper"
          (Term.const run_calibrate);
        cmd "all" "Run every experiment" (json_run "all experiments" run_all);
      ]
  in
  let info =
    Cmd.info "dpa_bench" ~version:"1.0"
      ~doc:
        "Reproduce the evaluation of 'Dynamic Pointer Alignment' (PPoPP \
         1997) on the simulated machine."
  in
  let default = with_flags (json_run "all experiments" run_all) in
  let code = Cmd.eval (Cmd.group ~default info commands) in
  List.iter (fun m -> prerr_endline ("dpa_bench: " ^ m)) !failures;
  exit (if code = 0 && !failures <> [] then 1 else code)
