(* Tests of the critical-path analyzer (lib/obs/critpath.ml) over the
   happens-before graph: hand-built DAGs with known longest paths and exact
   bucket decompositions, the path-eligibility and window-lifecycle rules,
   and qcheck invariants over real BH and EM3D runs — the segments always
   sum to the path length and 0 <= max span <= path <= phase wall, with and
   without faults. *)

module Sink = Dpa_obs.Sink
module Causal = Dpa_obs.Causal
module Critpath = Dpa_obs.Critpath
module Json = Dpa_obs.Json

let seg segs name = match List.assoc_opt name segs with Some v -> v | None -> 0

let sum_segments segs = List.fold_left (fun acc (_, v) -> acc + v) 0 segs

(* Record a node in [c] and return its id. The name only labels the
   hand-built DAG for the reader; the window does not store it. *)
let mk c ?(on_path = true) ~s ~name:_ ~ts ~dur () =
  let id = Causal.fresh c in
  Causal.node ~seg:s ~on_path c ~id ~ts ~dur;
  id

(* Build a window with [build], close it as one labeled phase, and return
   the single analyzed instance. *)
let analyze ?(wall = 0) ?(actual = 0) ?(bound = 0) build =
  let c = Causal.create () in
  build c;
  let wall =
    if wall > 0 then wall
    else
      let wall = ref 0 in
      for i = 0 to Causal.nodes c - 1 do
        wall := max !wall (Causal.node_ts c i + Causal.node_dur c i)
      done;
      !wall
  in
  Causal.set_meta c ~label:"t" ~wall_ns:wall ~opt_actual:actual ~opt_bound:bound;
  Critpath.at_barrier c;
  match Causal.results c with
  | [ i ] -> i
  | l -> Alcotest.failf "expected one instance, got %d" (List.length l)

let check_decomposition i expect =
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "bucket %s" name)
        (seg expect name) (seg i.Causal.i_segments name))
    Critpath.buckets;
  Alcotest.(check int) "segments sum to path" i.Causal.i_path_ns
    (sum_segments i.Causal.i_segments)

(* Fork/join: a quantum fans two requests out to two owners; the longer
   branch (F2 -> S2 -> R2) plus the delivery gap before the wake and the
   scheduling gap before the join quantum is the critical path. *)
let test_fork_join () =
  let i =
    analyze (fun c ->
        let a = mk c ~s:Causal.Compute ~name:"quantum" ~ts:0 ~dur:10 () in
        let f1 = mk c ~s:Causal.Wire ~name:"flight" ~ts:10 ~dur:5 () in
        let f2 = mk c ~s:Causal.Wire ~name:"flight" ~ts:10 ~dur:8 () in
        Causal.edge c ~kind:Causal.Send ~parent:a ~child:f1;
        Causal.edge c ~kind:Causal.Send ~parent:a ~child:f2;
        let s1 = mk c ~s:Causal.Compute ~name:"service" ~ts:20 ~dur:4 () in
        let s2 = mk c ~s:Causal.Compute ~name:"service" ~ts:18 ~dur:6 () in
        Causal.edge c ~kind:Causal.Deliver ~parent:f1 ~child:s1;
        Causal.edge c ~kind:Causal.Deliver ~parent:f2 ~child:s2;
        let r1 = mk c ~s:Causal.Wire ~name:"flight" ~ts:24 ~dur:5 () in
        let r2 = mk c ~s:Causal.Wire ~name:"flight" ~ts:24 ~dur:10 () in
        Causal.edge c ~kind:Causal.Send ~parent:s1 ~child:r1;
        Causal.edge c ~kind:Causal.Send ~parent:s2 ~child:r2;
        let w = mk c ~s:Causal.Other ~name:"wake" ~ts:40 ~dur:0 () in
        Causal.edge c ~kind:Causal.Deliver ~parent:r2 ~child:w;
        let b = mk c ~s:Causal.Compute ~name:"quantum" ~ts:41 ~dur:9 () in
        Causal.edge c ~kind:Causal.Seq ~parent:a ~child:b;
        Causal.edge c ~kind:Causal.Wake ~parent:w ~child:b)
  in
  Alcotest.(check int) "path" 50 i.Causal.i_path_ns;
  Alcotest.(check int) "nodes on path" 6 i.Causal.i_path_nodes;
  Alcotest.(check int) "max span" 10 i.Causal.i_max_span_ns;
  Alcotest.(check int) "dag nodes" 9 i.Causal.i_dag_nodes;
  Alcotest.(check int) "dag edges" 9 i.Causal.i_dag_edges;
  check_decomposition i
    [ ("compute", 25); ("wire", 18); ("owner_queue", 6); ("align_wait", 1) ]

(* Retransmit chain: the first attempt is dropped (nothing recorded), the
   timeout gap up to the re-issue marker and the retransmitted flight are
   both charged to the retransmit bucket. *)
let test_retransmit_chain () =
  let i =
    analyze (fun c ->
        let a = mk c ~s:Causal.Compute ~name:"quantum" ~ts:0 ~dur:10 () in
        let m = mk c ~s:Causal.Retransmit ~name:"rt_retry" ~ts:30 ~dur:0 () in
        Causal.edge c ~kind:Causal.Retry ~parent:a ~child:m;
        let f = mk c ~s:Causal.Retransmit ~name:"flight" ~ts:30 ~dur:5 () in
        Causal.edge c ~kind:Causal.Retry ~parent:m ~child:f;
        let w = mk c ~s:Causal.Other ~name:"wake" ~ts:35 ~dur:0 () in
        Causal.edge c ~kind:Causal.Deliver ~parent:f ~child:w;
        let b = mk c ~s:Causal.Compute ~name:"quantum" ~ts:35 ~dur:5 () in
        Causal.edge c ~kind:Causal.Seq ~parent:a ~child:b;
        Causal.edge c ~kind:Causal.Wake ~parent:w ~child:b)
  in
  Alcotest.(check int) "path" 40 i.Causal.i_path_ns;
  Alcotest.(check int) "nodes on path" 5 i.Causal.i_path_nodes;
  check_decomposition i [ ("compute", 15); ("retransmit", 25) ]

(* Crash-refetch chain: the gap between the last pre-crash activity and the
   restart marker is the outage; it and nothing else lands in the refetch
   bucket, while the re-fetch round-trip itself is ordinary wire/compute. *)
let test_refetch_chain () =
  let i =
    analyze (fun c ->
        let a = mk c ~s:Causal.Compute ~name:"quantum" ~ts:0 ~dur:10 () in
        let r = mk c ~s:Causal.Refetch ~name:"restart" ~ts:50 ~dur:0 () in
        Causal.edge c ~kind:Causal.Refetch_start ~parent:a ~child:r;
        let f = mk c ~s:Causal.Wire ~name:"flight" ~ts:50 ~dur:5 () in
        Causal.edge c ~kind:Causal.Send ~parent:r ~child:f;
        let s = mk c ~s:Causal.Compute ~name:"service" ~ts:55 ~dur:5 () in
        Causal.edge c ~kind:Causal.Deliver ~parent:f ~child:s;
        let rf = mk c ~s:Causal.Wire ~name:"flight" ~ts:60 ~dur:5 () in
        Causal.edge c ~kind:Causal.Send ~parent:s ~child:rf;
        let w = mk c ~s:Causal.Other ~name:"wake" ~ts:65 ~dur:0 () in
        Causal.edge c ~kind:Causal.Deliver ~parent:rf ~child:w;
        let b = mk c ~s:Causal.Compute ~name:"quantum" ~ts:65 ~dur:10 () in
        Causal.edge c ~kind:Causal.Seq ~parent:r ~child:b;
        Causal.edge c ~kind:Causal.Wake ~parent:w ~child:b)
  in
  Alcotest.(check int) "path" 75 i.Causal.i_path_ns;
  Alcotest.(check int) "nodes on path" 7 i.Causal.i_path_nodes;
  check_decomposition i [ ("compute", 25); ("wire", 10); ("refetch", 40) ]

(* Acks are recorded but path-ineligible: a late ack flight must not
   become the tail of the critical path. *)
let test_ack_not_on_path () =
  let i =
    analyze ~wall:200 (fun c ->
        let a = mk c ~s:Causal.Compute ~name:"quantum" ~ts:0 ~dur:10 () in
        let k =
          mk c ~on_path:false ~s:Causal.Wire ~name:"flight" ~ts:5 ~dur:150 ()
        in
        Causal.edge c ~kind:Causal.Ack ~parent:a ~child:k)
  in
  Alcotest.(check int) "path ends at the quantum" 10 i.Causal.i_path_ns;
  Alcotest.(check int) "single node" 1 i.Causal.i_path_nodes;
  (* The ineligible ack still counts in the DAG size, but not in the max
     span — eligibility is what keeps max span <= path. *)
  Alcotest.(check int) "dag nodes" 2 i.Causal.i_dag_nodes;
  Alcotest.(check int) "max span skips the ack" 10 i.Causal.i_max_span_ns;
  check_decomposition i [ ("compute", 10) ]

(* Unlabeled windows (baseline runtimes never call set_meta) are dropped
   unanalyzed, and the window is cleared either way. *)
let test_unlabeled_window_discarded () =
  let c = Causal.create () in
  let a = mk c ~s:Causal.Compute ~name:"quantum" ~ts:0 ~dur:10 () in
  let f = mk c ~s:Causal.Wire ~name:"flight" ~ts:10 ~dur:5 () in
  Causal.edge c ~kind:Causal.Send ~parent:a ~child:f;
  Critpath.at_barrier c;
  Alcotest.(check bool) "no instance" true (Causal.results c = []);
  Alcotest.(check bool) "window cleared" true (Causal.window_size c = (0, 0))

(* Span ids survive window resets: the allocator is never rewound, so a
   retransmission in a later window can still name its original parent. *)
let test_id_stability_across_windows () =
  let c = Causal.create () in
  let a = mk c ~s:Causal.Compute ~name:"quantum" ~ts:0 ~dur:1 () in
  Critpath.at_barrier c;
  let b = Causal.fresh c in
  Alcotest.(check bool) "monotone across barrier" true (b > a);
  Causal.set_current c a;
  Causal.reset_window c;
  Alcotest.(check int) "cursor cleared by reset" (-1) (Causal.current c);
  Alcotest.(check bool) "monotone across reset" true (Causal.fresh c > b)

let test_ratio () =
  Alcotest.(check (float 0.)) "both zero" 1.0 (Critpath.ratio ~actual:0 ~bound:0);
  Alcotest.(check (float 0.)) "bound zero" infinity
    (Critpath.ratio ~actual:5 ~bound:0);
  Alcotest.(check (float 1e-12)) "ordinary" 1.5
    (Critpath.ratio ~actual:150 ~bound:100)

(* The report JSON aggregates instances per label and exposes nphases. *)
let test_report_json () =
  let c = Causal.create () in
  let one ts =
    let a = mk c ~s:Causal.Compute ~name:"quantum" ~ts ~dur:10 () in
    ignore a;
    Causal.set_meta c ~label:"p" ~wall_ns:(ts + 10) ~opt_actual:120
      ~opt_bound:100;
    Critpath.at_barrier c
  in
  one 0;
  one 5;
  let j = Critpath.report_json c in
  (match Json.member "nphases" j with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "nphases <> 2");
  (match Json.member "phases" j with
  | Some (Json.List [ _; _ ]) -> ()
  | _ -> Alcotest.fail "phases list wrong");
  match Json.member "summary" j with
  | Some (Json.Obj [ ("p", row) ]) -> (
    match Json.member "opt_ratio" row with
    | Some (Json.Float r) -> Alcotest.(check (float 1e-9)) "ratio" 1.2 r
    | _ -> Alcotest.fail "summary ratio missing")
  | _ -> Alcotest.fail "summary missing label p"

(* --- invariants over real runs ----------------------------------------- *)

let check_instances ~what instances =
  if instances = [] then
    QCheck.Test.fail_reportf "%s: no analyzed phases" what;
  List.iter
    (fun i ->
      let sum = sum_segments i.Causal.i_segments in
      if sum <> i.Causal.i_path_ns then
        QCheck.Test.fail_reportf "%s/%s: segments sum %d <> path %d" what
          i.Causal.i_label sum i.Causal.i_path_ns;
      if
        not
          (0 <= i.Causal.i_max_span_ns
          && i.Causal.i_max_span_ns <= i.Causal.i_path_ns
          && i.Causal.i_path_ns <= i.Causal.i_wall_ns)
      then
        QCheck.Test.fail_reportf "%s/%s: span %d / path %d / wall %d disordered"
          what i.Causal.i_label i.Causal.i_max_span_ns i.Causal.i_path_ns
          i.Causal.i_wall_ns;
      if not (i.Causal.i_opt_actual >= i.Causal.i_opt_bound) then
        QCheck.Test.fail_reportf "%s/%s: actual %d < bound %d" what
          i.Causal.i_label i.Causal.i_opt_actual i.Causal.i_opt_bound;
      if i.Causal.i_opt_bound < 0 then
        QCheck.Test.fail_reportf "%s/%s: negative bound" what i.Causal.i_label)
    instances;
  true

let with_causal_sink f =
  let sink = Sink.create () in
  let c = Causal.create () in
  Sink.set_causal sink (Some c);
  let r = f sink in
  (c, r)

let run_bh ?fault ~nbodies ~nnodes ~strip sink =
  let bodies = Dpa_bh.Plummer.generate ~n:nbodies ~seed:29 in
  let octree = Dpa_bh.Octree.build bodies in
  let tree = Dpa_bh.Bh_global.distribute octree ~nnodes in
  let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:nnodes) in
  Dpa_sim.Engine.set_sink engine sink;
  (match fault with
  | Some spec ->
    Dpa_sim.Engine.set_fault engine
      (Some (Dpa_sim.Fault.make ~seed:41 spec ~nodes:nnodes))
  | None -> ());
  Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
    ~params:Dpa_bh.Bh_force.default_params
    (Dpa_baselines.Variant.dpa ~strip_size:strip ())

let qcheck_bh_invariants =
  QCheck.Test.make ~count:5 ~name:"bh: max span <= critical path <= wall"
    QCheck.(
      triple (int_range 48 160) (int_range 2 4) (int_range 4 24))
    (fun (nbodies, nnodes, strip) ->
      let c, _ =
        with_causal_sink (fun s -> run_bh ~nbodies ~nnodes ~strip (Some s))
      in
      check_instances ~what:"bh" (Causal.results c))

let test_bh_faulted_invariants () =
  let spec =
    match Dpa_sim.Fault.spec_of_string "heavy,crashes=2" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let c, _ =
    with_causal_sink (fun s ->
        run_bh ~fault:spec ~nbodies:160 ~nnodes:3 ~strip:8 (Some s))
  in
  ignore (check_instances ~what:"bh-faulted" (Causal.results c));
  (* Under heavy drop the path must actually cross retransmissions. *)
  let retrans =
    List.fold_left
      (fun acc i -> acc + seg i.Causal.i_segments "retransmit")
      0 (Causal.results c)
  in
  Alcotest.(check bool) "retransmit bucket charged" true (retrans > 0)

let run_em3d sink =
  let g =
    Dpa_compiler.Em3d.build ~nnodes:3 ~e_per_node:24 ~h_per_node:24 ~degree:4
      ~remote_frac:0.4 ~seed:13
  in
  let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:3) in
  Dpa_sim.Engine.set_sink engine sink;
  let sum = ref 0. in
  let accum v = sum := !sum +. v in
  ignore
    (Dpa.Runtime.run_phase ~engine ~heaps:g.Dpa_compiler.Em3d.heaps
       ~config:(Dpa.Config.dpa ~strip_size:8 ())
       ~items:(Dpa_compiler.Em3d.items (module Dpa.Runtime) g ~accum));
  !sum

let test_em3d_invariants () =
  let c, _ = with_causal_sink (fun s -> run_em3d (Some s)) in
  ignore (check_instances ~what:"em3d" (Causal.results c))

(* An accumulate-heavy phase for auditing the optimality bound's update
   side: remote accumulations from every strip, so the unique-target count
   has plenty of opportunities to double-count across crash-restarts. *)
let run_accum ?fault sink =
  let nnodes = 4 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let counters =
    Array.init 8 (fun i ->
        Dpa_heap.Heap.alloc heaps.(i mod nnodes) ~floats:[| 0.; 0. |]
          ~ptrs:[||])
  in
  let items node =
    Array.init 24 (fun i ->
        fun ctx ->
          Dpa.Runtime.charge ctx 2_000;
          Dpa.Runtime.accumulate ctx
            counters.((node + (3 * i)) mod 8)
            ~idx:(i mod 2) 1.0)
  in
  let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:nnodes) in
  Dpa_sim.Engine.set_sink engine sink;
  (match fault with
  | Some spec ->
    Dpa_sim.Engine.set_fault engine
      (Some (Dpa_sim.Fault.make ~seed:43 spec ~nodes:nnodes))
  | None -> ());
  ignore
    (Dpa.Runtime.run_phase_labeled ~label:"accum" ~engine ~heaps
       ~config:(Dpa.Config.dpa ~strip_size:6 ())
       ~items)

(* Crash-restart audit of the lower bound (DESIGN.md §14): the bound counts
   each unique remote object once and each unique accumulation target
   once, so a crash schedule — which forces re-fetches and WAL-driven
   re-sends — may only grow the *actual* side of the ratio. Both footprint
   tables use idempotent [replace]; this regression pins that a restart
   never double-counts the bound. *)
let test_opt_bound_stable_across_crashes () =
  let instance c label =
    match
      List.find_opt (fun i -> i.Causal.i_label = label) (Causal.results c)
    with
    | Some i -> (i.Causal.i_opt_actual, i.Causal.i_opt_bound)
    | None -> Alcotest.failf "phase %s missing from causal results" label
  in
  let spec =
    match Dpa_sim.Fault.spec_of_string "heavy,crashes=2" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  (* Read side: BH re-fetches remote cells after each restart. *)
  let c0, _ =
    with_causal_sink (fun s -> run_bh ~nbodies:120 ~nnodes:3 ~strip:8 (Some s))
  in
  let c1, _ =
    with_causal_sink (fun s ->
        run_bh ~fault:spec ~nbodies:120 ~nnodes:3 ~strip:8 (Some s))
  in
  let a0, b0 = instance c0 "bh-force" in
  let a1, b1 = instance c1 "bh-force" in
  Alcotest.(check int) "crash schedule leaves the read bound unchanged" b0 b1;
  Alcotest.(check bool) "re-fetches charge the actual side only" true
    (a1 >= a0 && a0 >= b0);
  (* Update side: WAL re-drive re-sends accumulation batches. *)
  let c2, () = with_causal_sink (fun s -> run_accum (Some s)) in
  let c3, () = with_causal_sink (fun s -> run_accum ~fault:spec (Some s)) in
  let a2, b2 = instance c2 "accum" in
  let a3, b3 = instance c3 "accum" in
  Alcotest.(check int) "crash schedule leaves the update bound unchanged" b2 b3;
  Alcotest.(check bool) "re-sent batches charge the actual side only" true
    (a3 >= a2 && a2 >= b2)

(* Bit-identity: causal tracing must not perturb the simulation — forces
   and the simulated breakdown match an untraced run exactly. *)
let test_causal_run_bit_identical () =
  let base = run_bh ~nbodies:96 ~nnodes:3 ~strip:8 None in
  let _, traced =
    with_causal_sink (fun s -> run_bh ~nbodies:96 ~nnodes:3 ~strip:8 (Some s))
  in
  Alcotest.(check bool) "forces identical" true
    (base.Dpa_bh.Bh_run.accs = traced.Dpa_bh.Bh_run.accs);
  Alcotest.(check bool) "breakdown identical" true
    (base.Dpa_bh.Bh_run.breakdown = traced.Dpa_bh.Bh_run.breakdown)

(* Pinned reports: the analyzer indexes the window by span id instead of
   looking nodes and predecessor lists up in hash tables, and must
   reproduce the reports the hash-table analyzer produced, byte for
   byte. The first is a real faulted phase. *)
let test_faulted_report_pinned () =
  let spec =
    match Dpa_sim.Fault.spec_of_string "heavy,crashes=2" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let c, _ =
    with_causal_sink (fun s ->
        run_bh ~fault:spec ~nbodies:512 ~nnodes:4 ~strip:16 (Some s))
  in
  Alcotest.(check string) "report"
    ({|{"phases":[{"label":"bh-force","wall_ns":112399775,"path_ns":112399775,|}
    ^ {|"path_nodes":1749,"max_span_ns":181116,"dag_nodes":8711,"dag_edges":9188,|}
    ^ {|"segments":{"compute":79347450,"align_wait":5906637,"wire":3279824,|}
    ^ {|"owner_queue":3638747,"retransmit":20222117,"refetch":5000,"other":0},|}
    ^ {|"opt_actual_bytes":708672,"opt_bound_bytes":103200,|}
    ^ {|"opt_ratio":6.86697674419}],"summary":{"bh-force":{"instances":1,|}
    ^ {|"wall_ns":112399775,"path_ns":112399775,"opt_actual_bytes":708672,|}
    ^ {|"opt_bound_bytes":103200,"opt_ratio":6.86697674419,|}
    ^ {|"seg_compute":79347450,"seg_align_wait":5906637,"seg_wire":3279824,|}
    ^ {|"seg_owner_queue":3638747,"seg_retransmit":20222117,"seg_refetch":5000,|}
    ^ {|"seg_other":0}},"nphases":1}|})
    (Json.to_string (Critpath.report_json c))

(* The second is hand-built around the two rules the index must keep: an
   edge from a node recorded in an earlier window is skipped, and a cycle
   (a recording bug) truncates the path at the first revisit instead of
   hanging. Also present: an ineligible ack feeding an eligible node, a
   parent id recorded nowhere, and two pairs of edges from one parent —
   on the path, the earlier edge (Wake, an alignment-wait gap) must win
   over the later one (Deliver, owner queue). *)
let test_handbuilt_window_pinned () =
  let c = Causal.create () in
  let old = mk c ~s:Causal.Compute ~name:"n" ~ts:0 ~dur:50 () in
  Critpath.at_barrier c;
  let a = mk c ~s:Causal.Compute ~name:"n" ~ts:100 ~dur:10 () in
  Causal.edge c ~kind:Causal.Seq ~parent:old ~child:a;
  let f = mk c ~s:Causal.Wire ~name:"n" ~ts:110 ~dur:20 () in
  Causal.edge c ~kind:Causal.Send ~parent:a ~child:f;
  let ack = mk c ~on_path:false ~s:Causal.Wire ~name:"n" ~ts:130 ~dur:500 () in
  Causal.edge c ~kind:Causal.Ack ~parent:f ~child:ack;
  let s = mk c ~s:Causal.Compute ~name:"n" ~ts:140 ~dur:15 () in
  Causal.edge c ~kind:Causal.Deliver ~parent:f ~child:s;
  Causal.edge c ~kind:Causal.Wake ~parent:f ~child:s;
  Causal.edge c ~kind:Causal.Deliver ~parent:ack ~child:s;
  let r = mk c ~s:Causal.Retransmit ~name:"n" ~ts:160 ~dur:30 () in
  Causal.edge c ~kind:Causal.Retry ~parent:s ~child:r;
  Causal.edge c ~kind:Causal.Retry ~parent:r ~child:s;
  let b = mk c ~s:Causal.Compute ~name:"n" ~ts:200 ~dur:5 () in
  Causal.edge c ~kind:Causal.Seq ~parent:a ~child:b;
  Causal.edge c ~kind:Causal.Wake ~parent:r ~child:b;
  Causal.edge c ~kind:Causal.Deliver ~parent:r ~child:b;
  Causal.edge c ~kind:Causal.Seq ~parent:(b + 7) ~child:b;
  Causal.set_meta c ~label:"hand" ~wall_ns:205 ~opt_actual:0 ~opt_bound:0;
  Critpath.at_barrier c;
  Alcotest.(check string) "report"
    ({|{"phases":[{"label":"hand","wall_ns":205,"path_ns":65,"path_nodes":3,|}
    ^ {|"max_span_ns":30,"dag_nodes":6,"dag_edges":12,"segments":{"compute":20,|}
    ^ {|"align_wait":10,"wire":0,"owner_queue":0,"retransmit":35,"refetch":0,|}
    ^ {|"other":0},"opt_actual_bytes":0,"opt_bound_bytes":0,"opt_ratio":1.0}],|}
    ^ {|"summary":{"hand":{"instances":1,"wall_ns":205,"path_ns":65,|}
    ^ {|"opt_actual_bytes":0,"opt_bound_bytes":0,"opt_ratio":1.0,|}
    ^ {|"seg_compute":20,"seg_align_wait":10,"seg_wire":0,"seg_owner_queue":0,|}
    ^ {|"seg_retransmit":35,"seg_refetch":0,"seg_other":0}},"nphases":1}|})
    (Json.to_string (Critpath.report_json c))

let suites =
  [
    ( "critpath",
      [
        Alcotest.test_case "fork-join decomposition" `Quick test_fork_join;
        Alcotest.test_case "retransmit chain" `Quick test_retransmit_chain;
        Alcotest.test_case "crash-refetch chain" `Quick test_refetch_chain;
        Alcotest.test_case "acks are path-ineligible" `Quick
          test_ack_not_on_path;
        Alcotest.test_case "unlabeled window discarded" `Quick
          test_unlabeled_window_discarded;
        Alcotest.test_case "span ids stable across windows" `Quick
          test_id_stability_across_windows;
        Alcotest.test_case "optimality ratio" `Quick test_ratio;
        Alcotest.test_case "report json" `Quick test_report_json;
        QCheck_alcotest.to_alcotest qcheck_bh_invariants;
        Alcotest.test_case "bh under heavy faults + crashes" `Quick
          test_bh_faulted_invariants;
        Alcotest.test_case "em3d invariants" `Quick test_em3d_invariants;
        Alcotest.test_case "optimality bound stable across crashes" `Quick
          test_opt_bound_stable_across_crashes;
        Alcotest.test_case "causal run bit-identical" `Quick
          test_causal_run_bit_identical;
        Alcotest.test_case "faulted report pinned" `Quick
          test_faulted_report_pinned;
        Alcotest.test_case "hand-built window pinned" `Quick
          test_handbuilt_window_pinned;
      ] );
  ]
