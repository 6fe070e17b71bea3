(* The four benchmark workloads. Each is built directly from the library
   entry points (lib/bh, lib/compiler, lib/core, lib/baselines), never
   through the experiment harness, so a rewrite of the harness cannot
   change what is measured.

   A workload is used in three steps:
   - [make scale ~seed] does the once-per-process work that is not
     measured (the chaos workload's faults-off reference runs);
   - the function it returns builds one rep's inputs and engines (the
     set-up time) and returns the phase runner;
   - the runner executes the phases (the host CPU time) and returns the
     counters plus untimed [inspect] / [counters] closures for the
     correctness oracle and the per-layer metrics. *)

open Dpa_sim

type scale = Full | Smoke

type outcome = {
  modelled_ns : int;  (** simulated phase time, summed over phases *)
  bytes : int;  (** simulated bytes sent, acks and retransmits included *)
  msgs : int;  (** simulated messages sent *)
  events : int;  (** engine events processed *)
  observed : (int * Dpa_obs.Causal.instance list) option;
      (** with a sink attached: events emitted, analysed critical paths *)
  inspect : unit -> string * string list;
      (** result digest and oracle violations ([[]] when correct) *)
  counters : unit -> (string * float) list;  (** per-layer counts *)
}

type rep = { spans : (string * float) list; run : unit -> outcome }

type t = {
  name : string;
  items : scale -> int;
  observed_by_default : bool;
      (** every rep carries a sink: the traced pass compares against one
          unobserved rep instead of the other way round *)
  make : scale -> seed:int -> observe:bool -> rep;
}

(* --- shared helpers ---------------------------------------------------- *)

let timed name spans f =
  let t0 = Sys.time () in
  let x = f () in
  spans := (name, Sys.time () -. t0) :: !spans;
  x

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let digest_floats arrays =
  let b = Buffer.create 4096 in
  List.iter
    (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)))
    arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* A sink plus a causal graph: what [--events --critical-path] installs. *)
let observer observe =
  if not observe then None
  else begin
    let sink = Dpa_obs.Sink.create () in
    Dpa_obs.Sink.set_causal sink (Some (Dpa_obs.Causal.create ()));
    Some sink
  end

let new_engine ?faults ?(fault_seed = 0) ~nodes sink =
  let engine = Engine.create (Machine.make ~nodes ?faults ~fault_seed ()) in
  Engine.set_sink engine sink;
  engine

let observed_of = function
  | None -> None
  | Some sink ->
    let paths =
      match Dpa_obs.Sink.causal sink with
      | Some c -> Dpa_obs.Causal.results c
      | None -> []
    in
    Some (Dpa_obs.Sink.emitted sink, paths)

let sum_breakdowns = function
  | [] -> invalid_arg "sum_breakdowns"
  | b :: rest -> List.fold_left Breakdown.add b rest

let breakdown_outcome ~engines ~observed ~inspect ~counters bs =
  let b = sum_breakdowns bs in
  {
    modelled_ns = b.Breakdown.elapsed_ns;
    bytes = b.Breakdown.bytes;
    msgs = b.Breakdown.msgs;
    events =
      List.fold_left (fun a e -> a + Engine.events_processed e) 0 engines;
    observed;
    inspect;
    counters;
  }

(* Runtime, aggregator, update-buffer, WAL and route counters of one or
   more DPA phases. [local_updates] are accumulates applied on their own
   node, which never enter the update buffer. *)
let dpa_counters ~items ?(local_updates = 0) (s : Dpa.Dpa_stats.t)
    (b : Breakdown.t) =
  let open Dpa.Dpa_stats in
  let remote = total_reads s - s.inline_local in
  let per x = float_of_int x /. float_of_int items in
  [
    ("runtime.remote_reads_per_item", per remote);
    ("runtime.reuse_rate", ratio (s.merge_hits + s.align_hits) remote);
    ("runtime.align_hit_rate", ratio s.align_hits remote);
    ("runtime.max_outstanding", float_of_int s.max_outstanding);
    ("runtime.align_peak", float_of_int s.align_peak);
    ("runtime.strips", float_of_int s.strips);
    ("runtime.rt_retries", float_of_int s.rt_retries);
    ("runtime.crash_refetches", float_of_int s.crash_refetches);
    ("runtime.local_frac", Breakdown.local_frac b);
    ("runtime.comm_frac", Breakdown.comm_frac b);
    ("runtime.idle_frac", Breakdown.idle_frac b);
    ("aggregator.entries_per_msg", ratio s.requests s.request_msgs);
    ("update_buffer.updates_per_item", per s.updates);
    ("update_buffer.combine_rate", ratio s.updates_combined s.updates);
    ( "update_buffer.entries_per_msg",
      ratio (s.updates - local_updates - s.updates_combined) s.update_msgs );
    ("wal.truncated", float_of_int s.wal_truncated);
    ("wal.repaired", float_of_int s.wal_repaired);
    ("wal.upd_reissues", float_of_int s.upd_reissues);
    ("route.routed_reissues", float_of_int s.routed_reissues);
    ("route.relay_wiped", float_of_int s.relay_wiped);
  ]

(* Reliable-transport counters summed over engines; all zero on engines
   without a fault plan, where the protocol does not exist. *)
let am_totals engines =
  List.fold_left
    (fun (acc : Dpa_msg.Am.stats) e ->
      match Dpa_msg.Am.stats e with
      | None -> acc
      | Some s ->
        {
          acc with
          retransmits = acc.retransmits + s.retransmits;
          retransmit_bytes = acc.retransmit_bytes + s.retransmit_bytes;
          acks = acc.acks + s.acks;
          dups_suppressed = acc.dups_suppressed + s.dups_suppressed;
          fenced = acc.fenced + s.fenced;
          corrupt_dropped = acc.corrupt_dropped + s.corrupt_dropped;
        })
    {
      Dpa_msg.Am.in_flight = 0;
      retransmits = 0;
      retransmit_bytes = 0;
      acks = 0;
      dups_suppressed = 0;
      seen_entries = 0;
      pruned = 0;
      fenced = 0;
      crash_wiped = 0;
      corrupt_dropped = 0;
    }
    engines

let am_counters ~items ~msgs ~bytes engines =
  let a = am_totals engines in
  let header = (Machine.t3d ~nodes:1).Machine.msg_header_bytes in
  [
    ("am.msgs_per_item", ratio msgs items);
    ("am.retransmits", float_of_int a.retransmits);
    ("am.acks", float_of_int a.acks);
    ("am.dups_suppressed", float_of_int a.dups_suppressed);
    ("am.fenced", float_of_int a.fenced);
    ("am.corrupt_dropped", float_of_int a.corrupt_dropped);
    ( "am.goodput",
      ratio (bytes - a.retransmit_bytes - (a.acks * header)) bytes );
  ]

(* --- Barnes-Hut ---------------------------------------------------------- *)

let bh_params = Dpa_bh.Bh_force.default_params

(* Plummer is the clustered SPLASH-2 input of the paper; a uniform cube
   gives a balanced tree whose work per body barely moves with the seed. *)
type distribution = Plummer | Uniform_cube

type bh_size = { n : int; nodes : int; dist : distribution }

let bh_inputs spans sz ~seed =
  let bodies =
    timed "setup.bodies_s" spans (fun () ->
        match sz.dist with
        | Plummer -> Dpa_bh.Plummer.generate ~n:sz.n ~seed
        | Uniform_cube -> Dpa_bh.Plummer.uniform_cube ~n:sz.n ~seed)
  in
  let octree =
    timed "setup.octree_s" spans (fun () ->
        Dpa_bh.Octree.build ~leaf_cap:8 bodies)
  in
  let tree =
    timed "setup.distribute_s" spans (fun () ->
        Dpa_bh.Bh_global.distribute octree ~nnodes:sz.nodes)
  in
  (bodies, octree, tree)

(* 64 evenly spaced bodies against the sequential reference traversal. *)
let bh_check octree (bodies : Dpa_bh.Body.t array) accs =
  let n = Array.length bodies in
  List.filter_map
    (fun k ->
      let i = k * n / 64 in
      let want =
        Dpa_bh.Bh_seq.force_on ~theta:bh_params.Dpa_bh.Bh_force.theta
          ~eps:bh_params.Dpa_bh.Bh_force.eps octree bodies.(i)
      in
      if Dpa_bh.Vec3.approx_equal ~tol:1e-9 want accs.(i) then None
      else Some (Printf.sprintf "body %d differs from Bh_seq.force_on" i))
    (List.init (min 64 n) Fun.id)

let vec_floats (accs : Dpa_bh.Vec3.t array) =
  Array.concat
    (Array.to_list
       (Array.map (fun (v : Dpa_bh.Vec3.t) -> [| v.x; v.y; v.z |]) accs))

let interactions_per_body octree =
  let w =
    Dpa_bh.Bh_seq.per_body_work ~theta:bh_params.Dpa_bh.Bh_force.theta
      ~visit_w:0 ~body_cell_w:1 ~body_body_w:1 octree
  in
  ratio (Array.fold_left ( + ) 0 w) (Array.length w)

(* One DPA force phase at strip 50, faults off. [stream] additionally
   attaches a JSONL writer to a file next to the executable, as
   [--events] does. *)
let bh_dpa_make ~stream sz ~seed ~observe =
  let spans = ref [] in
  let bodies, octree, tree = bh_inputs spans sz ~seed in
  let sink = observer observe in
  let events_file =
    match sink with
    | Some s when stream ->
      let path =
        Filename.temp_file
          ~temp_dir:(Filename.dirname Sys.executable_name)
          "perfbench-events" ".jsonl"
      in
      Dpa_obs.Sink.attach_writer s (Dpa_obs.Export.jsonl_writer (open_out path));
      Some path
    | _ -> None
  in
  let engine = new_engine ~nodes:sz.nodes sink in
  let run () =
    let r =
      Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies ~params:bh_params
        (Dpa_baselines.Variant.dpa ~strip_size:50 ())
    in
    let streamed =
      match (sink, events_file) with
      | Some s, Some path ->
        Dpa_obs.Sink.close_writer s;
        Sys.remove path;
        Dpa_obs.Sink.streamed s
      | _ -> 0
    in
    let b = r.Dpa_bh.Bh_run.breakdown in
    let stats = Option.get r.Dpa_bh.Bh_run.dpa_stats in
    breakdown_outcome [ b ] ~engines:[ engine ] ~observed:(observed_of sink)
      ~inspect:(fun () ->
        let problems = bh_check octree bodies r.Dpa_bh.Bh_run.accs in
        let problems =
          if events_file <> None && streamed = 0 then
            "the JSONL writer streamed no events" :: problems
          else problems
        in
        (digest_floats [ vec_floats r.Dpa_bh.Bh_run.accs ], problems))
      ~counters:(fun () ->
        ("bh_kernel.interactions_per_body", interactions_per_body octree)
        :: dpa_counters ~items:sz.n stats b
        @ am_counters ~items:sz.n ~msgs:b.Breakdown.msgs
            ~bytes:b.Breakdown.bytes [ engine ])
  in
  { spans = !spans; run }

(* The same kind of phase under software caching, then blocking reads. *)
let bh_baselines_make sz ~seed ~observe =
  let spans = ref [] in
  let bodies, octree, tree = bh_inputs spans sz ~seed in
  let sink = observer observe in
  let caching_engine = new_engine ~nodes:sz.nodes sink in
  let blocking_engine = new_engine ~nodes:sz.nodes sink in
  let run () =
    let phase engine variant =
      Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies ~params:bh_params variant
    in
    let c =
      phase caching_engine (Dpa_baselines.Variant.Caching { capacity = 1024 })
    in
    let k = phase blocking_engine Dpa_baselines.Variant.Blocking in
    let cb = c.Dpa_bh.Bh_run.breakdown and kb = k.Dpa_bh.Bh_run.breakdown in
    let engines = [ caching_engine; blocking_engine ] in
    let cs = Option.get c.Dpa_bh.Bh_run.cache_stats in
    breakdown_outcome [ cb; kb ] ~engines ~observed:(observed_of sink)
      ~inspect:(fun () ->
        let caching = digest_floats [ vec_floats c.Dpa_bh.Bh_run.accs ] in
        let problems = bh_check octree bodies c.Dpa_bh.Bh_run.accs in
        let problems =
          if caching = digest_floats [ vec_floats k.Dpa_bh.Bh_run.accs ] then
            problems
          else "caching and blocking accelerations differ" :: problems
        in
        (caching, problems))
      ~counters:(fun () ->
        let b = sum_breakdowns [ cb; kb ] in
        let open Dpa_baselines.Caching in
        [
          ("bh_kernel.interactions_per_body", interactions_per_body octree);
          ("caching.hit_rate", ratio cs.hits (cs.hits + cs.misses));
          ("caching.evictions_per_item", ratio cs.evictions sz.n);
          ("runtime.local_frac", Breakdown.local_frac b);
          ("runtime.comm_frac", Breakdown.comm_frac b);
          ("runtime.idle_frac", Breakdown.idle_frac b);
        ]
        @ am_counters ~items:sz.n ~msgs:b.Breakdown.msgs
            ~bytes:b.Breakdown.bytes engines)
  in
  { spans = !spans; run }

let bh_workload ~name ~observed_by_default ~size make =
  {
    name;
    items = (fun scale -> (size scale).n);
    observed_by_default;
    make = (fun scale -> make (size scale));
  }

let bh_dpa =
  bh_workload ~name:"bh-dpa" ~observed_by_default:false
    ~size:(function
      | Full -> { n = 16384; nodes = 16; dist = Plummer }
      | Smoke -> { n = 512; nodes = 4; dist = Plummer })
    (bh_dpa_make ~stream:false)

let bh_baselines =
  bh_workload ~name:"bh-baselines" ~observed_by_default:false
    ~size:(function
      | Full -> { n = 16384; nodes = 16; dist = Uniform_cube }
      | Smoke -> { n = 256; nodes = 4; dist = Uniform_cube })
    bh_baselines_make

let bh_observed =
  bh_workload ~name:"bh-observed" ~observed_by_default:true
    ~size:(function
      | Full -> { n = 8192; nodes = 8; dist = Uniform_cube }
      | Smoke -> { n = 256; nodes = 4; dist = Uniform_cube })
    (bh_dpa_make ~stream:true)

(* --- chaos: EM3D gather, then an accumulate scatter, under faults ------ *)

type chaos_size = {
  nodes : int;
  em3d_per_node : int;
  scatter_per_node : int;
  counters_per_node : int;
}

let chaos_size = function
  | Full ->
    { nodes = 16; em3d_per_node = 1024; scatter_per_node = 2000; counters_per_node = 64 }
  | Smoke ->
    { nodes = 4; em3d_per_node = 64; scatter_per_node = 200; counters_per_node = 8 }

(* Per-item values are O(10) and mostly of one sign, and there are O(10^4)
   of them: the running checksum reaches O(10^5), past the 2^16 exactness
   bound of the chaos matrices' 36-bit grid, where it would depend on the
   order replies arrive in. 28 bits keeps it exact below 2^24. *)
let em3d_grid = Dpa_util.Det.grid ~bits:28

(* Small integers: every partial sum is exact, so the counters do not
   depend on the order updates land in. *)
let scatter_value ~node ~i = ((node * 7919) + i) mod 97 + 1

(* Each scatter item targets one counter; a quarter of them sit on node 0,
   the hot destination the routed configuration sends through the
   reduction tree. *)
let scatter_targets sz ~seed =
  let rng = Dpa_util.Rng.create ~seed:(seed lxor 0x5CA7) in
  let ncounters = sz.nodes * sz.counters_per_node in
  Array.init sz.nodes (fun _ ->
      Array.init sz.scatter_per_node (fun _ ->
          if Dpa_util.Rng.int rng 4 = 0 then
            Dpa_util.Rng.int rng sz.counters_per_node
          else Dpa_util.Rng.int rng ncounters))

module Em3d_interp = Dpa_compiler.Interp.Make (Dpa.Runtime)

type chaos_inputs = {
  graph : Dpa_compiler.Em3d.t;
  program : Em3d_interp.compiled;
      (** the EM3D update in the IR: each node's neighbour terms are summed
          in program order, whatever order the replies arrive in *)
  counter_heaps : Dpa_heap.Heap.cluster;
  counters : Dpa_heap.Gptr.t array;  (** counter c lives on node c / per *)
  targets : int array array;
}

let chaos_inputs sz ~seed spans =
  timed "setup.graph_s" spans (fun () ->
      let graph =
        Dpa_compiler.Em3d.build ~nnodes:sz.nodes ~e_per_node:sz.em3d_per_node
          ~h_per_node:sz.em3d_per_node ~degree:20 ~remote_frac:0.25 ~seed
      in
      let program =
        Em3d_interp.compile ~accum_grid:em3d_grid
          (Dpa_compiler.Em3d.update_program ~degree:20)
      in
      let counter_heaps = Dpa_heap.Heap.cluster ~nnodes:sz.nodes in
      let counters =
        Array.init (sz.nodes * sz.counters_per_node) (fun c ->
            Dpa_heap.Heap.alloc
              counter_heaps.(c / sz.counters_per_node)
              ~floats:[| 0. |] ~ptrs:[||])
      in
      {
        graph;
        program;
        counter_heaps;
        counters;
        targets = scatter_targets sz ~seed;
      })

type chaos_phases = {
  checksum : float;
  values : float array;
  gather : Breakdown.t * Dpa.Dpa_stats.t;
  scatter : Breakdown.t * Dpa.Dpa_stats.t;
}

(* Run the gather on [gather_engine] and the scatter on [scatter_engine]. *)
let chaos_phases sz inp ~gather_engine ~scatter_engine =
  let per = sz.em3d_per_node in
  let gather =
    Dpa.Runtime.run_phase_labeled ~label:"em3d-gather" ~engine:gather_engine
      ~heaps:inp.graph.Dpa_compiler.Em3d.heaps
      ~config:(Dpa.Config.dpa ~strip_size:50 ())
      ~items:(fun node ->
        Array.init per (fun i ->
            Em3d_interp.item inp.program ~entry:"update_node"
              ~args:
                [
                  Dpa_compiler.Value.Ptr
                    inp.graph.Dpa_compiler.Em3d.e_nodes.((node * per) + i);
                ]))
  in
  let items node =
    Array.mapi
      (fun i c ctx ->
        Dpa.Runtime.charge ctx 2_000;
        Dpa.Runtime.accumulate ctx inp.counters.(c) ~idx:0
          (float_of_int (scatter_value ~node ~i)))
      inp.targets.(node)
  in
  let scatter =
    Dpa.Runtime.run_phase_labeled ~label:"scatter" ~engine:scatter_engine
      ~heaps:inp.counter_heaps
      ~config:(Dpa.Config.dpa ~strip_size:50 ~route:(Dpa.Config.Hot [ 0 ]) ())
      ~items
  in
  let values =
    Array.map (fun p -> Dpa_heap.Heap.view_float inp.counter_heaps p 0) inp.counters
  in
  {
    checksum = Em3d_interp.accumulator inp.program "sum";
    values;
    gather;
    scatter;
  }

(* The scatter's expected counters, summed directly from its definition. *)
let closed_form sz targets =
  let v = Array.make (sz.nodes * sz.counters_per_node) 0 in
  Array.iteri
    (fun node ts ->
      Array.iteri (fun i c -> v.(c) <- v.(c) + scatter_value ~node ~i) ts)
    targets;
  Array.map float_of_int v

(* Every fault class but NIC outages, with one crash per node drawn in the
   first half of the faults-off phase and down for a sixteenth of it.
   Outage windows and eighth-long crashes (the a14 cocktail) make the
   faulted phase length bimodal across seeds, between 1.8x and 4.5x the
   faults-off one, which no regression bound can hold; this mix stays
   near 1.5x on all but a few seeds in forty. *)
let fault_spec ~elapsed_ns =
  let knobs =
    Printf.sprintf
      "drop=0.05,dup=0.02,delay=0.1,corrupt=0.02,torn-wal=1,crashes=1,crash-ns=%d,horizon-ns=%d"
      (max 1_000 (elapsed_ns / 16))
      (max 1_000 (elapsed_ns / 2))
  in
  match Fault.spec_of_string knobs with
  | Ok s -> s
  | Error e -> failwith ("chaos fault spec: " ^ e)

let chaos_make scale ~seed =
  let sz = chaos_size scale in
  let fault_seed = seed lxor 0xFA17 in
  (* The faults-off reference: the modelled phase lengths the crash
     schedules scale with, and the results every faulted rep must
     reproduce bit for bit. Once per process, not measured. *)
  let reference =
    let inp = chaos_inputs sz ~seed (ref []) in
    chaos_phases sz inp ~gather_engine:(new_engine ~nodes:sz.nodes None)
      ~scatter_engine:(new_engine ~nodes:sz.nodes None)
  in
  let expected = closed_form sz (scatter_targets sz ~seed) in
  let local_updates =
    let n = ref 0 in
    Array.iteri
      (fun node ts ->
        Array.iter (fun c -> if c / sz.counters_per_node = node then incr n) ts)
      (scatter_targets sz ~seed);
    !n
  in
  let gather_faults =
    fault_spec ~elapsed_ns:(fst reference.gather).Breakdown.elapsed_ns
  in
  let scatter_faults =
    fault_spec ~elapsed_ns:(fst reference.scatter).Breakdown.elapsed_ns
  in
  fun ~observe ->
    let spans = ref [] in
    let inp = chaos_inputs sz ~seed spans in
    let sink = observer observe in
    let gather_engine =
      new_engine ~faults:gather_faults ~fault_seed ~nodes:sz.nodes sink
    in
    let scatter_engine =
      new_engine ~faults:scatter_faults ~fault_seed ~nodes:sz.nodes sink
    in
    let run () =
      let r = chaos_phases sz inp ~gather_engine ~scatter_engine in
      let engines = [ gather_engine; scatter_engine ] in
      let (gb, gs), (sb, ss) = (r.gather, r.scatter) in
      let stats = Dpa.Dpa_stats.merge [ gs; ss ] in
      let b = sum_breakdowns [ gb; sb ] in
      let items = (sz.em3d_per_node + sz.scatter_per_node) * sz.nodes in
      breakdown_outcome [ gb; sb ] ~engines ~observed:(observed_of sink)
        ~inspect:(fun () ->
          let am = am_totals engines in
          let check ok msg acc = if ok then acc else msg :: acc in
          let witness name v acc =
            check (v > 0) (name ^ " never fired: that fault class is untested") acc
          in
          let problems =
            []
            |> check
                 (Int64.equal
                    (Int64.bits_of_float r.checksum)
                    (Int64.bits_of_float reference.checksum))
                 "EM3D checksum differs from the faults-off run"
            |> check (r.values = reference.values)
                 "scatter counters differ from the faults-off run"
            |> check (r.values = expected)
                 "scatter counters differ from their closed-form sums"
            |> witness "crashes" stats.Dpa.Dpa_stats.crashes
            |> witness "corrupt_dropped" am.Dpa_msg.Am.corrupt_dropped
            |> witness "retransmits" am.Dpa_msg.Am.retransmits
            |> witness "wal.truncated" stats.Dpa.Dpa_stats.wal_truncated
            |> witness "crash_refetches" stats.Dpa.Dpa_stats.crash_refetches
          in
          (digest_floats [ [| r.checksum |]; r.values ], problems))
        ~counters:(fun () ->
          dpa_counters ~items ~local_updates stats b
          @ am_counters ~items ~msgs:b.Breakdown.msgs ~bytes:b.Breakdown.bytes
              engines)
    in
    { spans = !spans; run }

let chaos =
  {
    name = "chaos";
    items =
      (fun scale ->
        let sz = chaos_size scale in
        (sz.em3d_per_node + sz.scatter_per_node) * sz.nodes);
    observed_by_default = false;
    make = chaos_make;
  }

let all = [ bh_dpa; bh_baselines; chaos; bh_observed ]
