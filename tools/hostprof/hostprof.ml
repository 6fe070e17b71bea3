(* An in-process sampling profiler for one DPA Barnes-Hut force phase.

   Usage: hostprof [--nodes N]

   Builds the phase perfbench's bh-dpa runs (Plummer bodies, leaf cap 8,
   strip 50, faults off), on the 16,384 seed-17 bodies of
   docs/PERFORMANCE.md's tables, at [--nodes] nodes. Each side is run
   once untimed, then [reps] times each, alternating: the sequential
   traversal [Bh_seq.compute_forces] over the same tree, then the DPA
   phase under a profiling timer. Each SIGPROF (ITIMER_PROF, so CPU time;
   the kernel delivers it at its tick, 4 ms on a 250 Hz host) stores the
   handler's [Printexc.get_callstack] in a ring preallocated before the
   runs; the timer runs only during the timed DPA phases, so every one of
   them is sampled. The tool then prints each pair's DPA ÷ sequential CPU
   time as a median and range (one run of either side swings with host
   noise; the two runs of a pair are adjacent and share the host's
   state), then the medians per unit of work: host ns per kernel
   interaction on both sides (body-cell and body-body, counted by
   [Bh_seq.per_body_work] with unit weights) and, for the DPA phase, ns
   per thread (every read creates one: the phase's local, merged,
   D-hit and fetched reads), then each function's inclusive share: the
   fraction of samples whose stack holds a frame of it, inlined frames
   included.

   Only the inclusive shares mean anything. OCaml runs a signal handler
   at the next poll point (an allocation, a loop back-edge or a self tail
   call), not at the instruction the signal interrupted, so a sample's
   innermost frames lean toward the code around poll points. The frames
   that enclose the interrupted code are the same either way.

   The sampler reads no simulator state, so the phase's modelled output
   is the same with it on. Build it in the release profile, which is what
   perfbench runs: the dev profile compiles each module opaquely and
   inlines nothing across modules. *)

open Dpa_bh

let nodes = ref 16
let nbodies = 16384
let strip = 50
let top = 30
let reps = 5
let capacity = 1 lsl 16

let () =
  Arg.parse
    [ ("--nodes", Arg.Set_int nodes, "N  simulated nodes (default 16)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hostprof [--nodes N]";
  if !nodes <= 0 then begin
    prerr_endline "hostprof: --nodes must be positive";
    exit 2
  end

(* The sample ring: filled slot by slot while the phases run; past its
   capacity further samples are counted, not kept. *)
let ring = Array.make capacity (Printexc.get_callstack 0)
let taken = ref 0

let sample _ =
  let i = !taken in
  if i < capacity then ring.(i) <- Printexc.get_callstack 128;
  taken := i + 1

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = period; it_value = period })

let cpu f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

(* "Dpa__Runtime.drain" -> "Runtime.drain": drop the library prefix. *)
let short name =
  let rec last_sep i =
    if i < 1 then None
    else if name.[i] = '_' && name.[i - 1] = '_' then Some (i + 1)
    else last_sep (i - 1)
  in
  let dot = Option.value ~default:(String.length name) (String.index_opt name '.') in
  match last_sep (dot - 1) with
  | Some i -> String.sub name i (String.length name - i)
  | None -> name

(* The tool's own frames: the handler, the timed closure, the top level. *)
let own n = n = "Hostprof" || String.starts_with ~prefix:"Hostprof." n

(* Each function counted once per sample, however often it recurs. *)
let inclusive samples =
  let counts = Hashtbl.create 256 in
  Array.iter
    (fun raw ->
      let seen = Hashtbl.create 32 in
      match Printexc.backtrace_slots raw with
      | None -> ()
      | Some slots ->
        Array.iter
          (fun slot ->
            match Option.map short (Printexc.Slot.name slot) with
            | Some n when own n -> ()
            | Some n when not (Hashtbl.mem seen n) ->
              Hashtbl.replace seen n ();
              Hashtbl.replace counts n
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts n))
            | _ -> ())
          slots)
    samples;
  List.sort
    (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
    (Hashtbl.fold (fun n c acc -> (n, c) :: acc) counts [])

let () =
  let params = Bh_force.default_params in
  let bodies = Plummer.generate ~n:nbodies ~seed:17 in
  let octree = Octree.build ~leaf_cap:8 bodies in
  let tree = Bh_global.distribute octree ~nnodes:!nodes in
  (* Each side runs once before it is timed, so the timed runs find their
     arrays grown and the heap sized, as perfbench's repeated phases do. *)
  let seq () =
    Bh_seq.compute_forces ~theta:params.Bh_force.theta ~eps:params.Bh_force.eps
      octree
  in
  let dpa () =
    Bh_run.force_phase
      ~engine:(Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:!nodes))
      ~tree ~bodies ~params
      (Dpa_baselines.Variant.dpa ~strip_size:strip ())
  in
  ignore (seq ());
  ignore (dpa ());
  Sys.set_signal Sys.sigprof (Sys.Signal_handle sample);
  (* A loop of the tool's own, so no library frame encloses the samples. *)
  let rec pairs k acc =
    if k = 0 then acc
    else begin
      let _, seq_s = cpu seq in
      set_timer 0.001;
      let r, dpa_s = cpu dpa in
      set_timer 0.;
      pairs (k - 1) ((seq_s, dpa_s, r) :: acc)
    end
  in
  let timed = pairs reps [] in
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  let _, _, r = List.hd timed in
  let s = Option.get r.Bh_run.dpa_stats in
  let sorted f = List.sort compare (List.map f timed) in
  let median xs = List.nth xs (reps / 2) in
  let lo = List.hd and hi xs = List.nth xs (reps - 1) in
  let seqs = sorted (fun (q, _, _) -> q) in
  let dpas = sorted (fun (_, d, _) -> d) in
  let ratios = sorted (fun (q, d, _) -> d /. q) in
  let interactions =
    Array.fold_left ( + ) 0
      (Bh_seq.per_body_work ~theta:params.Bh_force.theta ~visit_w:0
         ~body_cell_w:1 ~body_body_w:1 octree)
  in
  let threads =
    s.Dpa.Dpa_stats.inline_local + s.Dpa.Dpa_stats.merge_hits
    + s.Dpa.Dpa_stats.align_hits + s.Dpa.Dpa_stats.spawns
  in
  let ns secs count = 1e9 *. secs /. float_of_int count in
  let n = min !taken capacity in
  Printf.printf
    "hostprof: DPA force phase, %d Plummer bodies (seed 17), %d nodes, \
     strip %d\n"
    nbodies !nodes strip;
  Printf.printf
    "%d alternating pairs, median (range): sequential traversal %.3f s cpu \
     (%.3f-%.3f); DPA phase %.3f s cpu (%.3f-%.3f)\n"
    reps (median seqs) (lo seqs) (hi seqs) (median dpas) (lo dpas) (hi dpas);
  Printf.printf "DPA / seq per pair: %.2fx (%.2f-%.2fx)\n" (median ratios)
    (lo ratios) (hi ratios);
  Printf.printf
    "per unit, medians: sequential %.1f ns per interaction; DPA %.1f ns per \
     interaction, %.1f ns per thread (%d interactions, %d threads)\n"
    (ns (median seqs) interactions)
    (ns (median dpas) interactions)
    (ns (median dpas) threads) interactions threads;
  Printf.printf
    "per body: %.1f remote reads (%.1f merged, %.1f fetched), %.2f request \
     messages\n"
    (float_of_int
       (s.Dpa.Dpa_stats.merge_hits + s.Dpa.Dpa_stats.spawns
      + s.Dpa.Dpa_stats.align_hits)
    /. float_of_int nbodies)
    (float_of_int s.Dpa.Dpa_stats.merge_hits /. float_of_int nbodies)
    (float_of_int s.Dpa.Dpa_stats.spawns /. float_of_int nbodies)
    (float_of_int s.Dpa.Dpa_stats.request_msgs /. float_of_int nbodies);
  Printf.printf "%d samples over the %d DPA phases%s; inclusive share of \
     samples:\n" !taken reps
    (if !taken > capacity then Printf.sprintf " (%d kept)" capacity else "");
  List.iteri
    (fun i (name, c) ->
      if i < top then
        Printf.printf "%6.1f%%  %s\n" (100. *. float_of_int c /. float_of_int n)
          name)
    (inclusive (Array.sub ring 0 n))
