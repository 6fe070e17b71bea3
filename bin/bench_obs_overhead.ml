(* Observability-overhead microbenchmark (see `make bench-obs-overhead`):
   host wall-clock time of the t2 (BH force-phase times) and f1 (BH
   breakdown) workloads at small scale in three configurations —
   observability off, --events streaming only, and causal tracing +
   critical-path analysis on top of streaming. The committed
   BENCH_obs_overhead.json documents the cost of each tier on the
   reference machine; the "off" tier is the bit-identical zero-cost
   baseline (every hook is a match on an absent sink).

   Usage: bench_obs_overhead [OUT.json] *)

open Dpa_harness

let conf = { Runconf.small with Runconf.bh_bodies = 512 }

let reps = 3

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Minimum over [reps] runs: host-load noise only ever adds time. *)
let best f =
  let rec go n acc = if n = 0 then acc else go (n - 1) (min acc (wall f)) in
  go (reps - 1) (wall f)

let workloads =
  [
    ("t2", fun () -> ignore (Experiment.rows ~memo:false Experiment.t2 conf));
    ("f1", fun () -> ignore (Experiment.rows ~memo:false Experiment.f1 conf));
  ]

(* Each tier installs (or not) a process-global sink around the workload,
   exactly as dpa_bench's --events / --critical-path plumbing does; the
   streamed file goes to a scratch path so disk content doesn't accrue. *)
let with_sink ~causal f () =
  let path = Filename.temp_file "dpa_bench_obs" ".jsonl" in
  let oc = open_out path in
  let sink = Dpa_obs.Sink.create () in
  if causal then Dpa_obs.Sink.set_causal sink (Some (Dpa_obs.Causal.create ()));
  Dpa_obs.Sink.attach_writer sink (Dpa_obs.Export.jsonl_writer oc);
  Dpa_obs.Sink.set_global (Some sink);
  Fun.protect
    ~finally:(fun () ->
      Dpa_obs.Sink.close_writer sink;
      Dpa_obs.Sink.set_global None;
      Sys.remove path)
    f

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_obs_overhead.json" in
  let rows =
    List.map
      (fun (name, f) ->
        let off = best f in
        let events = best (with_sink ~causal:false f) in
        let causal = best (with_sink ~causal:true f) in
        Printf.printf
          "%s: off %.3fs, events %.3fs (%.2fx), causal+critpath %.3fs (%.2fx)\n%!"
          name off events (events /. off) causal (causal /. off);
        ( name,
          Dpa_obs.Json.Obj
            [
              ("off_s", Dpa_obs.Json.Float off);
              ("events_s", Dpa_obs.Json.Float events);
              ("causal_critpath_s", Dpa_obs.Json.Float causal);
              ("events_overhead", Dpa_obs.Json.Float (events /. off));
              ("causal_critpath_overhead", Dpa_obs.Json.Float (causal /. off));
            ] ))
      workloads
  in
  let doc =
    Dpa_obs.Json.Obj
      [
        ("benchmark", Dpa_obs.Json.Str "observability overhead");
        ("scale", Dpa_obs.Json.Str conf.Runconf.name);
        ("bh_bodies", Dpa_obs.Json.Int conf.Runconf.bh_bodies);
        ("reps", Dpa_obs.Json.Int reps);
        ( "note",
          Dpa_obs.Json.Str
            "host wall seconds, min over reps; overhead = tier / off" );
        ("workloads", Dpa_obs.Json.Obj rows);
      ]
  in
  let oc = open_out out in
  output_string oc (Dpa_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" out
