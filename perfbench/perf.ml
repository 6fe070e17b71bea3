(* Driver of the committed benchmark (see README.md; the metric list, units,
   directions and bounds are in ../BENCHMARK.json).

     perf.exe --workload W --seed N --seconds S --trace 0|1
         one workload in this process; the last stdout line is the result
     perf.exe --all --out FILE [--seed N] [--seconds S] [--trace]
         every workload, each in its own child process, one at a time
     perf.exe --compare A.json B.json
         two --all files side by side, flagged against the bounds
     perf.exe --smoke
         every workload at tiny sizes, checked against BENCHMARK.json

   Host time is process CPU time (Sys.time, i.e. getrusage): the program is
   single-threaded, and CPU time does not charge a rep for being
   preempted. It is reported scaled to a reference core (see
   [calibration]). Wall time is kept as a diagnostic only. *)

module J = Dpa_obs.Json
module W = Workloads

(* --- statistics ---------------------------------------------------------- *)

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  end

let median xs = percentile xs 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* --- host speed -------------------------------------------------------- *)

(* The host's speed drifts. On a shared machine, other tenants' load slows
   this process by 10% and more, in bursts from seconds to minutes, and the
   slowdown is charged to its CPU time: it is contention for the core and
   its memory, not preemption. Two things keep host times steady across
   runs:
   - every rep is preceded by [calibration], a fixed loop that uses no
     library code and does not allocate, and a run's host times are scaled
     by [reference_s] over the loop's median CPU time in that run: seconds
     on a core that runs the loop in [reference_s], about what a 2-core
     host of this kind takes when idle. That follows slow drift;
   - a run reports its fastest rep, not its median: a burst only ever adds
     time, and the loop follows bursts only in part.
   On ten-seed sweeps of 15 s runs on a loaded host, the reported host time
   spread 2-7% where the median of unscaled reps spread 5-14%. Every rep's
   unscaled times are in the detail line. *)
let reference_s = 0.05

let calibration () =
  let t0 = Sys.time () in
  let x = ref 1.0 and y = ref 0.5 in
  for _ = 1 to 20_000_000 do
    x := (!x *. 0.999999) +. !y;
    y := (!y *. 0.9999991) +. 1e-9
  done;
  ignore (Sys.opaque_identity (!x +. !y));
  Sys.time () -. t0

(* --- one rep ----------------------------------------------------------------- *)

type sample = {
  calibration_s : float;  (** CPU time of [calibration] just before the rep *)
  setup_s : float;
  cpu_s : float;
  wall_s : float;
  alloc_words : float;
  minor : int;
  major : int;
  promoted_words : float;
  spans : (string * float) list;
}

(* One rep's measurements. No closure of the workload is kept, so a rep's
   inputs are garbage once it ends. *)
type attempt = {
  sample : sample;
  modelled_ns : int;
  bytes : int;
  msgs : int;
  events : int;
  observed : (int * Dpa_obs.Causal.instance list) option;
  digest : string;
  problems : string list;
  counters : (string * float) list;  (** only when asked for *)
}

(* A compacted heap before every rep: no rep pays for collecting the
   previous one's inputs, and the peak heap is one rep's. *)
let rep ?(counters = false) (prepare : observe:bool -> W.rep) ~observe =
  Gc.compact ();
  let calibration_s = calibration () in
  let t0 = Sys.time () in
  let r = prepare ~observe in
  let setup_s = Sys.time () -. t0 in
  let g0 = Gc.quick_stat () in
  let w0 = Unix.gettimeofday () in
  let a0 = Gc.allocated_bytes () in
  let c0 = Sys.time () in
  let o = r.W.run () in
  let cpu_s = Sys.time () -. c0 in
  let a1 = Gc.allocated_bytes () in
  let wall_s = Unix.gettimeofday () -. w0 in
  let g1 = Gc.quick_stat () in
  let digest, problems = o.W.inspect () in
  {
    sample =
      {
        calibration_s;
        setup_s;
        cpu_s;
        wall_s;
        alloc_words = (a1 -. a0) /. 8.;
        minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major = g1.Gc.major_collections - g0.Gc.major_collections;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        spans = r.W.spans;
      };
    modelled_ns = o.W.modelled_ns;
    bytes = o.W.bytes;
    msgs = o.W.msgs;
    events = o.W.events;
    observed = o.W.observed;
    digest;
    problems;
    counters = (if counters then o.W.counters () else []);
  }

let attempt ?counters prepare ~observe =
  try Ok (rep ?counters prepare ~observe) with e -> Error (Printexc.to_string e)

(* A warm-up rep, whose times are not kept (the heap grows to its working
   size during it), then reps until [seconds] of wall time have passed, at
   least one. Every rep's result is checked. *)
let attempts prepare ~observe ~seconds =
  let warmup = attempt prepare ~observe in
  let start = Unix.gettimeofday () in
  let rec go acc =
    let acc = attempt prepare ~observe :: acc in
    if Unix.gettimeofday () -. start >= seconds then List.rev acc else go acc
  in
  (warmup, go [])

(* A rep fails if it raised, broke the oracle, or produced a result digest
   different from the first good rep's or from the recorded digest. *)
let failures ~expected attempts =
  let reference =
    match expected with
    | Some d -> Some d
    | None ->
      List.find_map (function Ok a -> Some a.digest | Error _ -> None) attempts
  in
  List.filter_map
    (function
      | Error e -> Some ("raised " ^ e)
      | Ok a when a.problems <> [] -> Some (String.concat "; " a.problems)
      | Ok a when Some a.digest <> reference ->
        Some ("result digest " ^ a.digest ^ " differs from the expected one")
      | Ok _ -> None)
    attempts

let good attempts = List.filter_map Result.to_option attempts

(* --- metrics ------------------------------------------------------------- *)

(* A run's host time for [f]: the fastest rep's, scaled to the reference
   core (see [calibration]). *)
let host_time samples f =
  List.fold_left (fun m s -> Float.min m (f s)) Float.infinity samples
  *. reference_s
  /. median (List.map (fun s -> s.calibration_s) samples)

let end_to_end ~items (ok : attempt list) =
  let samples = List.map (fun a -> a.sample) ok in
  let med f = median (List.map f samples) in
  let o = List.hd ok in
  let items = float_of_int items in
  let cpu = host_time samples (fun s -> s.cpu_s) in
  [
    ("items_per_s", "items/s", items /. cpu);
    ("host_cpu_s", "s", cpu);
    ("setup_s", "s", host_time samples (fun s -> s.setup_s));
    ("alloc_words_per_item", "words", med (fun s -> s.alloc_words) /. items);
    ( "peak_heap_mb",
      "MB",
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6 );
    ("modelled_s", "s", float_of_int o.modelled_ns *. 1e-9);
    ("wire_bytes_per_item", "bytes", float_of_int o.bytes /. items);
    ("wire_msgs_per_item", "msgs", float_of_int o.msgs /. items);
  ]

(* Metrics that repeat exactly for a given seed. *)
let deterministic = [ "modelled_s"; "wire_bytes_per_item"; "wire_msgs_per_item" ]

(* Every per-layer metric with its unit. A workload that does not exercise
   a layer reports 0 for it. *)
let layer_units =
  [
    ("event_queue.add_pop_ns", "ns");
    ("event_queue.words_per_event", "words");
    ("engine.events_per_item", "events");
    ("engine.events_per_s", "1/s");
    ("engine.dispatch_ns", "ns");
    ("engine.cpu_share", "ratio");
    ("am.msgs_per_item", "msgs");
    ("am.send_ns_off", "ns");
    ("am.send_ns_faults", "ns");
    ("am.retransmits", "count");
    ("am.acks", "count");
    ("am.dups_suppressed", "count");
    ("am.fenced", "count");
    ("am.corrupt_dropped", "count");
    ("am.goodput", "ratio");
    ("wire.seal_verify_ns", "ns");
    ("aggregator.entries_per_msg", "entries");
    ("aggregator.add_ns", "ns");
    ("route.routed_reissues", "count");
    ("route.relay_wiped", "count");
    ("runtime.remote_reads_per_item", "reads");
    ("runtime.reuse_rate", "ratio");
    ("runtime.align_hit_rate", "ratio");
    ("runtime.max_outstanding", "threads");
    ("runtime.align_peak", "objects");
    ("runtime.strips", "count");
    ("runtime.rt_retries", "count");
    ("runtime.crash_refetches", "count");
    ("runtime.local_frac", "ratio");
    ("runtime.comm_frac", "ratio");
    ("runtime.idle_frac", "ratio");
    ("update_buffer.updates_per_item", "updates");
    ("update_buffer.combine_rate", "ratio");
    ("update_buffer.entries_per_msg", "entries");
    ("update_buffer.add_ns", "ns");
    ("wal.append_ns", "ns");
    ("wal.scan_ns_per_record", "ns");
    ("wal.truncated", "count");
    ("wal.repaired", "count");
    ("wal.upd_reissues", "count");
    ("heap.view_float_ns", "ns");
    ("setup.bodies_s", "s");
    ("setup.octree_s", "s");
    ("setup.distribute_s", "s");
    ("setup.graph_s", "s");
    ("bh_kernel.ns_per_interaction", "ns");
    ("bh_kernel.interactions_per_body", "count");
    ("caching.hit_rate", "ratio");
    ("caching.evictions_per_item", "count");
    ("caching.lru_op_ns", "ns");
    ("sink.events_per_item", "events");
    ("sink.instant_ns", "ns");
    ("sink.trace_overhead_x", "x");
    ("critpath.path_s", "s");
  ]
  @ List.map (fun b -> ("critpath." ^ b ^ "_frac", "ratio")) Dpa_obs.Critpath.buckets
  @ [
      ("critpath.comm_opt_ratio", "ratio");
      ("gc.minor_per_rep", "count");
      ("gc.major_per_rep", "count");
      ("gc.promoted_words_per_item", "words");
    ]

let critpath_metrics (paths : Dpa_obs.Causal.instance list) =
  let sum f = float_of_int (List.fold_left (fun a i -> a + f i) 0 paths) in
  let path = sum (fun i -> i.Dpa_obs.Causal.i_path_ns) in
  let bucket b =
    sum (fun i ->
        Option.value ~default:0 (List.assoc_opt b i.Dpa_obs.Causal.i_segments))
  in
  (("critpath.path_s", path *. 1e-9)
  :: List.map
       (fun b -> ("critpath." ^ b ^ "_frac", ratio (bucket b) path))
       Dpa_obs.Critpath.buckets)
  @ [
      ( "critpath.comm_opt_ratio",
        ratio
          (sum (fun i -> i.Dpa_obs.Causal.i_opt_actual))
          (sum (fun i -> i.Dpa_obs.Causal.i_opt_bound)) );
    ]

(* The traced pass: one more rep with a sink and a causal graph attached
   (for a workload observed by default, one more rep without), the
   workload's own counters, and the Bechamel layer tier. Returns the
   metrics and the extra attempt, which counts towards the result. *)
let per_layer (w : W.t) ~items prepare (ok : attempt list) ~quota =
  let items = float_of_int items in
  let samples = List.map (fun a -> a.sample) ok in
  let med f = median (List.map f samples) in
  let cpu = host_time samples (fun s -> s.cpu_s) in
  let extra =
    attempt ~counters:true prepare ~observe:(not w.W.observed_by_default)
  in
  let layers = Layers.run ~quota in
  let from_extra =
    match extra with
    | Error _ -> []
    | Ok a ->
      let extra_cpu = host_time [ a.sample ] (fun s -> s.cpu_s) in
      let traced, plain_cpu, observed_cpu =
        if w.W.observed_by_default then (List.hd ok, extra_cpu, cpu)
        else (a, cpu, extra_cpu)
      in
      let sink =
        match traced.observed with
        | Some (emitted, paths) ->
          ("sink.events_per_item", float_of_int emitted /. items)
          :: ("sink.trace_overhead_x", observed_cpu /. plain_cpu)
          :: critpath_metrics paths
        | None -> []
      in
      let events = float_of_int a.events in
      [
        ("engine.events_per_item", events /. items);
        ("engine.events_per_s", events /. cpu);
        (* Bechamel times are not scaled: unscaled on both sides. *)
        ( "engine.cpu_share",
          events
          *. List.assoc "engine.dispatch_ns" layers
          *. 1e-9
          /. med (fun s -> s.cpu_s) );
      ]
      @ sink @ a.counters
  in
  let spans =
    List.map
      (fun (name, _) -> (name, host_time samples (fun s -> List.assoc name s.spans)))
      (List.hd samples).spans
  in
  let measured =
    [
      ("gc.minor_per_rep", med (fun s -> float_of_int s.minor));
      ("gc.major_per_rep", med (fun s -> float_of_int s.major));
      ("gc.promoted_words_per_item", med (fun s -> s.promoted_words) /. items);
    ]
    @ spans @ layers @ from_extra
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, unit, Option.value ~default:0. (List.assoc_opt name measured)))
      layer_units
  in
  (metrics, extra)

(* --- one workload -------------------------------------------------------- *)

(* The --all output for the default seed, committed with the benchmark:
   its seed is the default one, and its result digests are what every run
   with that seed must reproduce. *)
let baseline_file = "perfbench/baseline.json"

let read_json path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let path keys j =
  List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) keys

let baseline () =
  if Sys.file_exists baseline_file then Some (read_json baseline_file) else None

let default_seed () =
  match Option.bind (baseline ()) (path [ "seed" ]) with
  | Some (J.Int s) -> s
  | _ -> 1

let expected_digest ~workload ~seed =
  match baseline () with
  | None -> None
  | Some b -> (
    match (path [ "seed" ] b, path [ "workloads"; workload; "detail"; "digest" ] b) with
    | Some (J.Int s), Some (J.Str d) when s = seed -> Some d
    | _ -> None)

let commit () =
  let read f = String.trim (In_channel.with_open_bin f In_channel.input_all) in
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> read (Filename.concat ".git" r)
    | _ -> head
  with Sys_error _ -> "unknown"

let metrics_json metrics =
  J.Obj
    (List.map
       (fun (name, unit, v) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
       metrics)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;
  detail : J.t;
}

let run_workload (w : W.t) scale ~seed ~seconds ~trace ~quota =
  let items = w.W.items scale in
  let prepare = w.W.make scale ~seed in
  let warmup, timed =
    attempts prepare ~observe:w.W.observed_by_default ~seconds
  in
  let ok = good timed in
  let metrics, extra =
    match ok with
    | [] -> ([], [])
    | _ when trace ->
      let m, extra = per_layer w ~items prepare ok ~quota in
      (m, [ extra ])
    | _ -> (end_to_end ~items ok, [])
  in
  let all = (warmup :: timed) @ extra in
  let expected =
    if scale = W.Full then expected_digest ~workload:w.W.name ~seed else None
  in
  let failed = failures ~expected all in
  let samples = List.map (fun a -> a.sample) ok in
  let per_rep f = J.List (List.map (fun s -> J.Float (f s)) samples) in
  let detail =
    J.Obj
      [
        ("workload", J.Str w.W.name);
        ("seed", J.Int seed);
        ("items", J.Int items);
        ("reps", J.Int (List.length samples));
        ( "per_rep",
          J.Obj
            [
              ("host_cpu_s", per_rep (fun s -> s.cpu_s));
              ("setup_s", per_rep (fun s -> s.setup_s));
              ("wall_s", per_rep (fun s -> s.wall_s));
              ("calibration_s", per_rep (fun s -> s.calibration_s));
            ] );
        ( "digest",
          match ok with a :: _ -> J.Str a.digest | [] -> J.Null );
        ("digest_checked", J.Bool (expected <> None));
        ("failures", J.List (List.map (fun f -> J.Str f) failed));
        ("commit", J.Str (commit ()));
        ("profile", J.Str Build_info.profile);
        ("ocaml", J.Str Sys.ocaml_version);
        ("nproc", J.Int (Domain.recommended_domain_count ()));
      ]
  in
  {
    correct = failed = [] && ok <> [];
    attempted = List.length all;
    failed = List.length failed;
    metrics;
    detail;
  }

let result_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ("metrics", metrics_json r.metrics);
    ]

let find_workload name =
  match List.find_opt (fun w -> w.W.name = name) W.all with
  | Some w -> w
  | None ->
    Printf.eprintf "perf: unknown workload %S (one of: %s)\n" name
      (String.concat ", " (List.map (fun w -> w.W.name) W.all));
    exit 2

(* --- --all and --compare ------------------------------------------------- *)

(* Run this executable as a child for one workload; its stdout ends with
   the detail line and the result line. *)
let child ~seed ~seconds ~trace (w : W.t) =
  let exe = Sys.executable_name in
  let args =
    [|
      exe; "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
      string_of_float seconds; "--trace"; (if trace then "1" else "0");
    |]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args Unix.stdin out_w Unix.stderr in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let parsed =
    List.filter_map
      (fun l -> match J.parse l with Ok j -> Some j | Error _ -> None)
      lines
  in
  match (status, List.rev parsed) with
  | Unix.WEXITED 0, result :: detail :: _ ->
    J.Obj [ ("result", result); ("detail", detail) ]
  | _ ->
    Printf.eprintf "perf: workload %s failed\n" w.W.name;
    exit 1

let run_all ~seed ~seconds ~trace ~out =
  let rows =
    List.map
      (fun (w : W.t) ->
        Printf.eprintf "perf: %s...\n%!" w.W.name;
        (w.W.name, child ~seed ~seconds ~trace w))
      W.all
  in
  let doc =
    J.Obj
      [
        ("seed", J.Int seed);
        ("seconds", J.Float seconds);
        ("trace", J.Bool trace);
        ("workloads", J.Obj rows);
      ]
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s\n" out

let num = function
  | Some (J.Float f) -> Some f
  | Some (J.Int i) -> Some (float_of_int i)
  | _ -> None

type listed = { unit : string; better : string; bound : float option }

(* The metrics BENCHMARK.json lists under [key] ("end_to_end" or
   "per_layer"). *)
let listed key =
  match J.member key (read_json "BENCHMARK.json") with
  | Some (J.List ms) ->
    List.filter_map
      (fun m ->
        match (J.member "name" m, J.member "unit" m, J.member "better" m) with
        | Some (J.Str n), Some (J.Str unit), Some (J.Str better) ->
          Some (n, { unit; better; bound = num (J.member "bound" m) })
        | _ -> None)
      ms
  | _ -> failwith ("BENCHMARK.json: no " ^ key ^ " list")

(* Interquartile range over the median of the scaled per-rep times behind
   [metric], from a detail line. *)
let spread metric row =
  let per_rep k =
    match path [ "detail"; "per_rep"; k ] row with
    | Some (J.List xs) -> List.filter_map (fun x -> num (Some x)) xs
    | _ -> []
  in
  let iqr k =
    let xs = List.map2 ( /. ) (per_rep k) (per_rep "calibration_s") in
    Printf.sprintf "%.2f%%"
      (100. *. ratio (percentile xs 0.75 -. percentile xs 0.25) (median xs))
  in
  match metric with
  | "items_per_s" | "host_cpu_s" -> iqr "host_cpu_s"
  | "setup_s" -> iqr "setup_s"
  | _ -> "-"

(* Deterministic metrics must match exactly when both files ran the same
   seed; every other metric may be worse by at most its bound. *)
let compare_files a b =
  let a = read_json a and b = read_json b in
  let same_seed = path [ "seed" ] a = path [ "seed" ] b in
  let spec = listed "end_to_end" @ listed "per_layer" in
  let flagged = ref 0 in
  let workloads j =
    match J.member "workloads" j with Some (J.Obj ws) -> ws | _ -> []
  in
  let metrics r =
    match path [ "result"; "metrics" ] r with Some (J.Obj ms) -> ms | _ -> []
  in
  let value r m =
    Option.bind (List.assoc_opt m (metrics r)) (fun v -> num (J.member "value" v))
  in
  Printf.printf "%-13s %-32s %14s %14s %9s %8s %8s  %s\n" "workload" "metric" "A"
    "B" "delta" "spreadA" "spreadB" "verdict";
  List.iter
    (fun (wname, ra) ->
      match List.assoc_opt wname (workloads b) with
      | None ->
        incr flagged;
        Printf.printf "%-13s missing from B\n" wname
      | Some rb ->
        List.iter
          (fun (m, _) ->
            match (value ra m, value rb m) with
            | Some va, Some vb ->
              let delta = if va = 0. then 0. else (vb -. va) /. va in
              let verdict =
                if same_seed && List.mem m deterministic then
                  if va = vb then "exact" else "MISMATCH"
                else
                  match List.assoc_opt m spec with
                  | Some { better; bound = Some bound; _ } ->
                    let worse = if better = "lower" then delta else -.delta in
                    if worse > bound then "OUTSIDE BOUND" else "ok"
                  | _ -> "-"
              in
              if verdict = "MISMATCH" || verdict = "OUTSIDE BOUND" then incr flagged;
              Printf.printf "%-13s %-32s %14.6g %14.6g %+8.2f%% %8s %8s  %s\n" wname
                m va vb (100. *. delta) (spread m ra) (spread m rb) verdict
            | _ ->
              incr flagged;
              Printf.printf "%-13s %-32s missing\n" wname m)
          (metrics ra))
    (workloads a);
  Printf.printf "%d flagged\n" !flagged;
  if !flagged > 0 then exit 1

(* --- --smoke --------------------------------------------------------------- *)

(* Every workload at tiny sizes, one rep, both passes, then the output is
   checked against BENCHMARK.json: every listed metric present, finite and
   in the listed unit. The chaos fault witnesses are part of its oracle. *)
let smoke () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : W.t) ->
      List.iter
        (fun (trace, key) ->
          let spec = listed key in
          let r = run_workload w W.Smoke ~seed:1 ~seconds:0. ~trace ~quota:0.01 in
          if not r.correct then
            problem "%s: %s" w.W.name
              (J.to_string (Option.get (J.member "failures" r.detail)));
          let got = List.map (fun (n, u, v) -> (n, (u, v))) r.metrics in
          List.iter
            (fun (name, l) ->
              match List.assoc_opt name got with
              | None -> problem "%s: %s missing" w.W.name name
              | Some (u, _) when u <> l.unit ->
                problem "%s: %s in %s, listed as %s" w.W.name name u l.unit
              | Some (_, v) when not (Float.is_finite v) ->
                problem "%s: %s is not finite" w.W.name name
              | Some _ -> ())
            spec;
          List.iter
            (fun (n, _) ->
              if not (List.mem_assoc n spec) then
                problem "%s: %s is not listed in BENCHMARK.json" w.W.name n)
            got)
        [ (false, "end_to_end"); (true, "per_layer") ])
    W.all;
  match List.rev !problems with
  | [] -> print_endline "smoke: every workload correct; every listed metric present"
  | ps ->
    List.iter prerr_endline ps;
    exit 1

(* --- entry point ----------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref None and seconds = ref 10. in
  let trace = ref false and all = ref false and out = ref None in
  let compare_a = ref "" and compare = ref None and smoke_mode = ref false in
  let usage =
    "perf.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       perf.exe --all --out FILE [--seed N] [--seconds S] [--trace 0|1]\n\
    \       perf.exe --compare A.json B.json\n\
    \       perf.exe --smoke"
  in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W one workload");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time per workload");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun s -> trace := s = "1"),
        " 1: the per-layer pass instead of the end-to-end one" );
      ("--all", Arg.Set all, " every workload, one child process each");
      ("--out", Arg.String (fun s -> out := Some s), "FILE output of --all");
      ( "--compare",
        Arg.Tuple
          [
            Arg.Set_string compare_a;
            Arg.String (fun b -> compare := Some (!compare_a, b));
          ],
        "A.json B.json compare two --all files" );
      ("--smoke", Arg.Set smoke_mode, " tiny sizes, checked against BENCHMARK.json");
    ]
  in
  let fail msg =
    prerr_endline ("perf: " ^ msg);
    prerr_endline (Arg.usage_string specs usage);
    exit 2
  in
  Arg.parse specs (fun a -> fail ("unexpected argument " ^ a)) usage;
  let seed () = match !seed with Some s -> s | None -> default_seed () in
  match (!compare, !smoke_mode, !all, !workload) with
  | Some (a, b), false, false, None -> compare_files a b
  | None, true, false, None -> smoke ()
  | None, false, true, None -> (
    match !out with
    | Some out -> run_all ~seed:(seed ()) ~seconds:!seconds ~trace:!trace ~out
    | None -> fail "--all needs --out FILE")
  | None, false, false, Some name ->
    let w = find_workload name in
    let r =
      run_workload w W.Full ~seed:(seed ()) ~seconds:!seconds ~trace:!trace
        ~quota:0.25
    in
    print_endline (J.to_string r.detail);
    print_endline (J.to_string (result_json r))
  | _ -> fail "choose one of --workload, --all, --compare and --smoke"
