(* An in-process sampling profiler for one DPA phase: the Barnes-Hut
   force phase (the default) or the interpreted EM3D gather.

   Usage: hostprof [--nodes N] [--kernel bh|em3d]

   [--kernel bh] builds the phase perfbench's bh-dpa runs (Plummer
   bodies, leaf cap 8, strip 50, faults off), on the 16,384 seed-17
   bodies of docs/PERFORMANCE.md's tables, at [--nodes] nodes, against
   the sequential traversal [Bh_seq.compute_forces] over the same tree.
   [--kernel em3d] builds the faults-off gather of perfbench's chaos
   workload: [Em3d.update_program] run by the IR interpreter on the DPA
   runtime over [--nodes] x 1,024 E-nodes (degree 20, 25% remote, seed
   1, strip 50, accumulator grid of 28 bits), against the sequential
   [Em3d.reference_update] over the same graph: a yardstick for the
   interpreter's host cost.

   Each side is run once untimed, then [reps] times each, alternating:
   the sequential side, then the DPA phase under a profiling timer. Each
   SIGPROF (ITIMER_PROF, so CPU time; the kernel delivers it at its
   tick, 4 ms on a 250 Hz host) stores the handler's
   [Printexc.get_callstack] in a ring preallocated before the runs; the
   timer runs only during the timed DPA phases, so every one of them is
   sampled. The tool then prints each pair's DPA ÷ sequential CPU time as
   a median and range (one run of either side swings with host noise;
   the two runs of a pair are adjacent and share the host's state), then
   the medians per unit of work, then each function's inclusive share:
   the fraction of samples whose stack holds a frame of it, inlined
   frames included. Per unit of work: for bh, host ns per kernel
   interaction on both sides (body-cell and body-body, counted by
   [Bh_seq.per_body_work] with unit weights) and ns per DPA thread
   (every read creates one: the phase's local, merged, D-hit and
   fetched reads); for em3d, ns per thread and the minor and promoted
   words per item of [reps] more DPA runs without the sampler (whose
   handler allocates).

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
let kernel = ref "bh"
let nbodies = 16384
let em3d_per_node = 1024
let strip = 50
let top = 30
let reps = 5
let capacity = 1 lsl 16

let () =
  Arg.parse
    [
      ("--nodes", Arg.Set_int nodes, "N  simulated nodes (default 16)");
      ( "--kernel",
        Arg.Symbol ([ "bh"; "em3d" ], fun k -> kernel := k),
        "  the phase to profile (default bh)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "hostprof [--nodes N] [--kernel bh|em3d]";
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

(* One untimed run of each side, then [reps] alternating pairs: [seq],
   then [par] under the profiling timer. Returns each pair's CPU seconds
   (sequential, DPA) and the last DPA result. *)
let pairs seq par =
  ignore (seq ());
  ignore (par ());
  Sys.set_signal Sys.sigprof (Sys.Signal_handle sample);
  (* A loop of the tool's own, so no library frame encloses the samples. *)
  let rec go k acc last =
    if k = 0 then (acc, last)
    else begin
      let _, seq_s = cpu seq in
      set_timer 0.001;
      let r, par_s = cpu par in
      set_timer 0.;
      go (k - 1) ((seq_s, par_s) :: acc) (Some r)
    end
  in
  let timed, last = go reps [] None in
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  (timed, Option.get last)

let sorted f xs = List.sort compare (List.map f xs)
let median xs = List.nth xs (List.length xs / 2)
let lo = List.hd
let hi xs = List.nth xs (List.length xs - 1)
let ns secs count = 1e9 *. secs /. float_of_int count

(* Each side's median and range, and the pairs' DPA ÷ sequential. *)
let print_pairs ~seq_name ~par_name ~ratio_name timed =
  let seqs = sorted fst timed and pars = sorted snd timed in
  let ratios = sorted (fun (q, d) -> d /. q) timed in
  Printf.printf
    "%d alternating pairs, median (range): %s %.3f s cpu (%.3f-%.3f); %s \
     %.3f s cpu (%.3f-%.3f)\n"
    reps seq_name (median seqs) (lo seqs) (hi seqs) par_name (median pars)
    (lo pars) (hi pars);
  Printf.printf "%s per pair: %.2fx (%.2f-%.2fx)\n" ratio_name (median ratios)
    (lo ratios) (hi ratios);
  (median seqs, median pars)

(* Every read creates a thread: the phase's local, merged, D-hit and
   fetched reads. *)
let threads (s : Dpa.Dpa_stats.t) =
  s.inline_local + s.merge_hits + s.align_hits + s.spawns

let print_shares () =
  let n = min !taken capacity in
  Printf.printf "%d samples over the %d DPA phases%s; inclusive share of \
     samples:\n" !taken reps
    (if !taken > capacity then Printf.sprintf " (%d kept)" capacity else "");
  List.iteri
    (fun i (name, c) ->
      if i < top then
        Printf.printf "%6.1f%%  %s\n" (100. *. float_of_int c /. float_of_int n)
          name)
    (inclusive (Array.sub ring 0 n))

let bh () =
  let params = Bh_force.default_params in
  let bodies = Plummer.generate ~n:nbodies ~seed:17 in
  let octree = Octree.build ~leaf_cap:8 bodies in
  let tree = Bh_global.distribute octree ~nnodes:!nodes in
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
  let timed, r = pairs seq dpa in
  let s = Option.get r.Bh_run.dpa_stats in
  let interactions =
    Array.fold_left ( + ) 0
      (Bh_seq.per_body_work ~theta:params.Bh_force.theta ~visit_w:0
         ~body_cell_w:1 ~body_body_w:1 octree)
  in
  Printf.printf
    "hostprof: DPA force phase, %d Plummer bodies (seed 17), %d nodes, \
     strip %d\n"
    nbodies !nodes strip;
  let seq_s, dpa_s =
    print_pairs ~seq_name:"sequential traversal" ~par_name:"DPA phase"
      ~ratio_name:"DPA / seq" timed
  in
  Printf.printf
    "per unit, medians: sequential %.1f ns per interaction; DPA %.1f ns per \
     interaction, %.1f ns per thread (%d interactions, %d threads)\n"
    (ns seq_s interactions) (ns dpa_s interactions)
    (ns dpa_s (threads s)) interactions (threads s);
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
  print_shares ()

module Em3d_interp = Dpa_compiler.Interp.Make (Dpa.Runtime)

let em3d () =
  let g =
    Dpa_compiler.Em3d.build ~nnodes:!nodes ~e_per_node:em3d_per_node
      ~h_per_node:em3d_per_node ~degree:20 ~remote_frac:0.25 ~seed:1
  in
  let program =
    Em3d_interp.compile ~accum_grid:(Dpa_util.Det.grid ~bits:28)
      (Dpa_compiler.Em3d.update_program ~degree:20)
  in
  let items =
    Array.init !nodes (fun node ->
        Array.init em3d_per_node (fun i ->
            Em3d_interp.item program ~entry:"update_node"
              ~args:
                [
                  Dpa_compiler.Value.Ptr
                    g.Dpa_compiler.Em3d.e_nodes.((node * em3d_per_node) + i);
                ]))
  in
  let seq () = Dpa_compiler.Em3d.reference_update g in
  let gather () =
    Dpa.Runtime.run_phase_labeled ~label:"em3d-gather"
      ~engine:(Dpa_sim.Engine.create (Dpa_sim.Machine.make ~nodes:!nodes ()))
      ~heaps:g.Dpa_compiler.Em3d.heaps
      ~config:(Dpa.Config.dpa ~strip_size:strip ())
      ~items:(fun node -> items.(node))
  in
  let timed, (_, s) = pairs seq gather in
  let nitems = !nodes * em3d_per_node in
  let words =
    List.init reps (fun _ ->
        let m0 = Gc.minor_words () and _, p0, _ = Gc.counters () in
        ignore (Sys.opaque_identity (gather ()));
        let m1 = Gc.minor_words () and _, p1, _ = Gc.counters () in
        ( (m1 -. m0) /. float_of_int nitems,
          (p1 -. p0) /. float_of_int nitems ))
  in
  Printf.printf
    "hostprof: interpreted EM3D gather, %d nodes x %d E-nodes (degree 20, \
     25%% remote, seed 1), strip %d\n"
    !nodes em3d_per_node strip;
  let _, gather_s =
    print_pairs ~seq_name:"sequential update" ~par_name:"interpreted gather"
      ~ratio_name:"interpreted / seq" timed
  in
  Printf.printf
    "per unit, medians: %.1f ns per thread (%d threads); %.1f minor and %.1f \
     promoted words per item (%d items, %d runs without the sampler)\n"
    (ns gather_s (threads s)) (threads s)
    (median (sorted fst words))
    (median (sorted snd words))
    nitems reps;
  print_shares ()

let () = if !kernel = "em3d" then em3d () else bh ()
