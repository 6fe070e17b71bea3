(* Fault injection and the reliable-delivery protocol: spec parsing, plan
   determinism, exactly-once semantics of the Am layer under hostile
   networks, and randomized end-to-end properties — a faulted phase must
   compute exactly the fault-free results, and a fixed fault seed must
   replay the exact same chaos run. *)

open Dpa_sim

(* --- spec parsing ------------------------------------------------------- *)

let test_spec_presets () =
  (match Fault.spec_of_string "none" with
  | Ok s -> Alcotest.(check bool) "none" true (s = Fault.none)
  | Error e -> Alcotest.fail e);
  (match Fault.spec_of_string "light" with
  | Ok s ->
    Alcotest.(check (float 0.)) "light drop" 0.01 s.Fault.drop;
    Alcotest.(check (float 0.)) "light dup" 0.005 s.Fault.dup
  | Error e -> Alcotest.fail e);
  match Fault.spec_of_string "heavy" with
  | Ok s ->
    Alcotest.(check (float 0.)) "heavy drop" 0.10 s.Fault.drop;
    Alcotest.(check int) "heavy outages" 1 s.Fault.outages
  | Error e -> Alcotest.fail e

let test_spec_key_values () =
  match
    Fault.spec_of_string
      "drop=0.05,dup=0.01,delay=0.2,jitter=77,outages=2,outage-ns=123,horizon-ns=456,crashes=2,crash-ns=99,slow-node=1,slow-factor=2.5,corrupt=0.03,torn-wal=1"
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check (float 0.)) "drop" 0.05 s.Fault.drop;
    Alcotest.(check (float 0.)) "dup" 0.01 s.Fault.dup;
    Alcotest.(check (float 0.)) "delay" 0.2 s.Fault.delay;
    Alcotest.(check int) "jitter" 77 s.Fault.jitter_ns;
    Alcotest.(check int) "outages" 2 s.Fault.outages;
    Alcotest.(check int) "outage-ns" 123 s.Fault.outage_ns;
    Alcotest.(check int) "horizon-ns" 456 s.Fault.outage_horizon_ns;
    Alcotest.(check int) "crashes" 2 s.Fault.crashes;
    Alcotest.(check int) "crash-ns" 99 s.Fault.crash_ns;
    Alcotest.(check int) "slow-node" 1 s.Fault.slow_node;
    Alcotest.(check (float 0.)) "slow-factor" 2.5 s.Fault.slow_factor;
    Alcotest.(check (float 0.)) "corrupt" 0.03 s.Fault.corrupt;
    Alcotest.(check (float 0.)) "torn-wal" 1. s.Fault.torn_wal

let test_spec_preset_override () =
  match Fault.spec_of_string "heavy,crashes=1,crash-ns=777" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check (float 0.)) "heavy drop kept" 0.10 s.Fault.drop;
    Alcotest.(check int) "heavy outages kept" 1 s.Fault.outages;
    Alcotest.(check int) "crashes overridden" 1 s.Fault.crashes;
    Alcotest.(check int) "crash-ns overridden" 777 s.Fault.crash_ns

let test_spec_errors () =
  let rejects str =
    match Fault.spec_of_string str with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted bad spec %S" str
  in
  rejects "drop=1.5";
  rejects "drop=-0.1";
  rejects "wat=1";
  rejects "drop";
  rejects "drop=abc";
  rejects "jitter=abc";
  rejects "crashes=-1";
  rejects "crash-ns=-5";
  rejects "slow-factor=0.5";
  rejects "corrupt=1";  (* per-copy probability: must stay below 1 *)
  rejects "corrupt=-0.1";
  rejects "torn-wal=1.5";  (* 1 is legal (deterministic tear), above is not *)
  rejects "torn-wal=-1"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_spec_errors_enumerate_keys () =
  (* A typo'd spec is a CLI dead end: the error must teach the valid
     vocabulary, not just reject. *)
  let error_of str =
    match Fault.spec_of_string str with
    | Error e -> e
    | Ok _ -> Alcotest.failf "accepted bad spec %S" str
  in
  let lists_keys e =
    contains e "valid keys:" && contains e "crashes" && contains e "crash-ns"
    && contains e "drop" && contains e "horizon-ns" && contains e "corrupt"
    && contains e "torn-wal"
  in
  Alcotest.(check bool)
    "unknown knob enumerates keys" true
    (lists_keys (error_of "wat=1"));
  Alcotest.(check bool)
    "missing '=' enumerates keys" true
    (lists_keys (error_of "light,drop"));
  let preset_err = error_of "wibble,drop=0.1" in
  Alcotest.(check bool)
    "unknown preset names presets and keys" true
    (contains preset_err "presets: none, light, heavy"
    && lists_keys preset_err)

(* --- plan determinism --------------------------------------------------- *)

(* 200 verdicts, each with its copies' delays. *)
let judge_stream t =
  List.init 200 (fun i ->
      match
        Fault.judge t ~now:(i * 1000)
          ~arrival:((i * 1000) + 500)
          ~src:(i mod 4)
          ~dst:((i + 1) mod 4)
          ~transfer_ns:300
      with
      | Fault.Deliver -> (Fault.Deliver, List.init (Fault.copies t) (Fault.extra t))
      | v -> (v, []))

(* The plan's per-transmission path allocates nothing: the window scans,
   the coins and the verdict, whose delays stay in the plan. *)
let test_judge_allocates_nothing () =
  let t =
    Fault.make ~seed:5
      { Workload.heavy_faults with Fault.crashes = 2; slow_node = 1; slow_factor = 2. }
      ~nodes:4
  in
  let copies = ref 0 in
  let judge i =
    match
      Fault.judge t ~now:(i * 1000)
        ~arrival:((i * 1000) + 500)
        ~src:(i land 3)
        ~dst:((i + 1) land 3)
        ~transfer_ns:300
    with
    | Fault.Deliver -> copies := !copies + Fault.extra t (Fault.copies t - 1)
    | Fault.Drop | Fault.Outage -> ()
  in
  judge 0;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    judge i
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "some copies delivered" true (!copies > 0);
  if words > 16. then
    Alcotest.failf "%.0f minor words over 10000 verdicts (bound 16)" words

let test_plan_determinism () =
  let spec = { Workload.heavy_faults with Fault.outages = 3 } in
  let a = Fault.make ~seed:99 spec ~nodes:4 in
  let b = Fault.make ~seed:99 spec ~nodes:4 in
  for node = 0 to 3 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "windows of node %d equal" node)
      (Fault.outage_windows a ~node)
      (Fault.outage_windows b ~node)
  done;
  let verdicts t = judge_stream t in
  Alcotest.(check bool) "same seed, same verdicts" true (verdicts a = verdicts b);
  let c = Fault.make ~seed:100 spec ~nodes:4 in
  Alcotest.(check bool)
    "different seed, different verdicts" true
    (verdicts a <> verdicts c)

let test_plan_validation () =
  Alcotest.check_raises "drop out of range"
    (Invalid_argument "Fault: drop must be in [0,1), got 1") (fun () ->
      ignore (Fault.make { Fault.none with Fault.drop = 1.0 } ~nodes:2));
  Alcotest.check_raises "nodes must be positive"
    (Invalid_argument "Fault.make: nodes must be positive") (fun () ->
      ignore (Fault.make Fault.none ~nodes:0))

(* --- reliable delivery over a faulty engine ------------------------------ *)

let test_exactly_once () =
  let spec =
    {
      Fault.none with
      Fault.drop = 0.35;
      dup = 0.25;
      delay = 0.3;
      jitter_ns = 20_000;
    }
  in
  let engine =
    Engine.create (Machine.make ~nodes:3 ~faults:spec ~fault_seed:42 ())
  in
  let m = Engine.machine engine in
  let n = 60 in
  let count = Array.make n 0 in
  for i = 0 to n - 1 do
    let src = Engine.node engine (i mod 2) in
    Dpa_msg.Am.send engine ~src ~dst:2
      ~bytes:(m.Machine.msg_header_bytes + 32) (fun _ ->
        count.(i) <- count.(i) + 1)
  done;
  Engine.run engine;
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "handler %d runs once" i) 1 c)
    count;
  Alcotest.(check int) "no in-flight envelopes" 0
    (Dpa_msg.Am.in_flight engine);
  match Dpa_msg.Am.stats engine with
  | None -> Alcotest.fail "reliable state missing"
  | Some s ->
    Alcotest.(check bool) "losses forced retransmits" true
      (s.Dpa_msg.Am.retransmits > 0);
    Alcotest.(check bool) "duplicates were suppressed" true
      (s.Dpa_msg.Am.dups_suppressed > 0);
    Alcotest.(check bool) "acks flowed" true (s.Dpa_msg.Am.acks >= n)

let test_none_plan_protocol_overhead_only () =
  (* Installing [Fault.none] turns the protocol on with a perfect network:
     every envelope is acked on the first attempt and nothing retransmits. *)
  let engine =
    Engine.create (Machine.make ~nodes:2 ~faults:Fault.none ~fault_seed:1 ())
  in
  let m = Engine.machine engine in
  let delivered = ref 0 in
  for _ = 1 to 10 do
    let src = Engine.node engine 0 in
    Dpa_msg.Am.send engine ~src ~dst:1
      ~bytes:(m.Machine.msg_header_bytes + 16) (fun _ -> incr delivered)
  done;
  Engine.run engine;
  Alcotest.(check int) "all delivered" 10 !delivered;
  match Dpa_msg.Am.stats engine with
  | None -> Alcotest.fail "reliable state missing"
  | Some s ->
    Alcotest.(check int) "no retransmits" 0 s.Dpa_msg.Am.retransmits;
    Alcotest.(check int) "no dups" 0 s.Dpa_msg.Am.dups_suppressed;
    Alcotest.(check int) "one ack per message" 10 s.Dpa_msg.Am.acks;
    Alcotest.(check int) "drained" 0 s.Dpa_msg.Am.in_flight

let test_no_plan_no_protocol () =
  let engine = Engine.create (Machine.make ~nodes:2 ()) in
  let m = Engine.machine engine in
  let delivered = ref 0 in
  Dpa_msg.Am.send engine
    ~src:(Engine.node engine 0)
    ~dst:1
    ~bytes:(m.Machine.msg_header_bytes + 16)
    (fun _ -> incr delivered);
  Engine.run engine;
  Alcotest.(check int) "delivered" 1 !delivered;
  Alcotest.(check bool) "no protocol state allocated" true
    (Dpa_msg.Am.stats engine = None)

let test_outage_recovery () =
  let spec =
    {
      Fault.none with
      Fault.outages = 1;
      outage_ns = 50_000;
      outage_horizon_ns = 200_000;
    }
  in
  let engine =
    Engine.create (Machine.make ~nodes:2 ~faults:spec ~fault_seed:7 ())
  in
  let plan = Option.get (Engine.fault engine) in
  let start, _ = List.hd (Fault.outage_windows plan ~node:0) in
  let m = Engine.machine engine in
  let delivered = ref 0 in
  (* Fire the send at the very start of node 0's NIC outage: the first
     transmission is guaranteed lost, so delivery proves the retransmission
     path outlives the window. *)
  Engine.post engine ~time:start ~node:0 (fun () ->
      Dpa_msg.Am.send engine
        ~src:(Engine.node engine 0)
        ~dst:1
        ~bytes:(m.Machine.msg_header_bytes + 64)
        (fun _ -> incr delivered));
  Engine.run engine;
  Alcotest.(check int) "delivered once" 1 !delivered;
  Alcotest.(check bool) "outage claimed a transmission" true
    (Fault.outage_drops plan > 0);
  Alcotest.(check int) "drained" 0 (Dpa_msg.Am.in_flight engine)

(* --- randomized end-to-end properties ------------------------------------ *)

let fault_spec_gen =
  QCheck.Gen.(
    let* drop = float_range 0. 0.3 in
    let* dup = float_range 0. 0.25 in
    let* delay = float_range 0. 0.3 in
    let* jitter_ns = int_range 1 30_000 in
    let* outages = int_range 0 2 in
    return
      {
        Fault.none with
        Fault.drop;
        dup;
        delay;
        jitter_ns;
        outages;
        outage_ns = 100_000;
        outage_horizon_ns = 2_000_000;
      })

(* Run one DPA phase (the same random workloads test_properties.ml uses) on
   a machine with an optional fault plan. The heap values are integer-valued
   floats, so the per-node sums are exact and order-independent — equality
   with the fault-free run means no wake was lost, duplicated or misrouted. *)
let run_dpa ?faults ?(fault_seed = 0x5EED) spec =
  let nnodes, _, nitems, _ = spec in
  let heaps, item_reads = Test_properties.build_phase spec in
  let sums = Array.make nnodes 0. in
  let items node =
    Array.init nitems (fun item ->
        fun ctx ->
          List.iter
            (fun p ->
              Dpa.Runtime.read ctx p (fun ctx view ->
                  Dpa.Runtime.charge ctx 100;
                  sums.(Dpa.Runtime.node_id ctx) <-
                    sums.(Dpa.Runtime.node_id ctx)
                    +. Dpa_heap.Heap.view_float (Dpa.Runtime.heaps ctx) view 0))
            (item_reads node item))
  in
  let engine =
    Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ())
  in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:3 ~agg_max:4 ())
      ~items
  in
  (sums, stats, Engine.elapsed engine, Dpa_msg.Am.stats engine)

let chaos_phase_gen =
  QCheck.Gen.(pair Test_properties.phase_gen (pair fault_spec_gen (int_range 0 1000)))

let qcheck_faults_preserve_sums =
  QCheck.Test.make ~name:"DPA phase under faults computes fault-free sums"
    ~count:30 (QCheck.make chaos_phase_gen)
    (fun (phase, (spec, seed)) ->
      let reference, _, _, _ = run_dpa phase in
      let sums, stats, _, am = run_dpa ~faults:spec ~fault_seed:seed phase in
      let nnodes, _, nitems, _ = phase in
      (* Every read is accounted for exactly once: inline, alignment-buffer
         hit, merge onto an outstanding fetch, or a fresh thread. Retries
         re-issue messages, never reads. *)
      let accounted =
        stats.Dpa.Dpa_stats.inline_local + stats.Dpa.Dpa_stats.align_hits
        + stats.Dpa.Dpa_stats.merge_hits + stats.Dpa.Dpa_stats.spawns
      in
      reference = sums
      && accounted = nnodes * nitems * 3
      (* A phase with no remote reads never sends, so the protocol state
         may legitimately be absent. *)
      && match am with Some s -> s.Dpa_msg.Am.in_flight = 0 | None -> true)

let qcheck_chaos_deterministic =
  QCheck.Test.make ~name:"same fault seed replays the identical chaos run"
    ~count:20 (QCheck.make chaos_phase_gen)
    (fun (phase, (spec, seed)) ->
      let s1, st1, e1, am1 = run_dpa ~faults:spec ~fault_seed:seed phase in
      let s2, st2, e2, am2 = run_dpa ~faults:spec ~fault_seed:seed phase in
      s1 = s2 && st1 = st2 && e1 = e2 && am1 = am2)

let qcheck_caching_survives_faults =
  QCheck.Test.make
    ~name:"caching baseline under faults computes fault-free sums" ~count:20
    (QCheck.make chaos_phase_gen)
    (fun (phase, (spec, seed)) ->
      let run ?faults ?(fault_seed = 0x5EED) () =
        Test_properties.run_variant
          (module Dpa_baselines.Caching)
          (fun heaps items ->
            let nnodes, _, _, _ = phase in
            let engine =
              Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ())
            in
            ignore
              (Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:7
                 ~items ()))
          phase
      in
      run () = run ~faults:spec ~fault_seed:seed ())

(* --- crash-restart ------------------------------------------------------- *)

(* Derive a crash plan from a reference run's duration, the way the a13
   matrix does: one crash per node inside the first half of the phase,
   with a restart delay of an eighth of it. *)
let crash_spec ?(crashes = 1) ~elapsed () =
  {
    Fault.none with
    Fault.crashes;
    crash_ns = max 1_000 (elapsed / 8);
    outage_horizon_ns = max 1_000 (elapsed / 2);
  }

let test_incarnation_fencing () =
  (* An envelope is stamped with the destination's incarnation at wire-out.
     Crash the destination before the copy lands: the delivery must be
     fenced (no handler, no ack), and only the retransmission — stamped
     with the new incarnation — may run the handler. *)
  let engine =
    Engine.create (Machine.make ~nodes:2 ~faults:Fault.none ~fault_seed:3 ())
  in
  let m = Engine.machine engine in
  let delivered = ref 0 in
  Dpa_msg.Am.send engine
    ~src:(Engine.node engine 0)
    ~dst:1
    ~bytes:(m.Machine.msg_header_bytes + 32)
    (fun _ -> incr delivered);
  let dst = Engine.node engine 1 in
  dst.Node.incarnation <- dst.Node.incarnation + 1;
  ignore (Dpa_msg.Am.on_crash engine ~node:1);
  Engine.run engine;
  Alcotest.(check int) "handler ran exactly once" 1 !delivered;
  match Dpa_msg.Am.stats engine with
  | None -> Alcotest.fail "protocol state missing"
  | Some s ->
    Alcotest.(check bool) "stale copy fenced" true (s.Dpa_msg.Am.fenced >= 1);
    Alcotest.(check bool) "fence forced a retransmit" true
      (s.Dpa_msg.Am.retransmits >= 1);
    Alcotest.(check int) "drained" 0 s.Dpa_msg.Am.in_flight

let test_am_on_crash_wipes_sender_state () =
  (* A crashed node's own outstanding envelopes are volatile state: the
     sender forgets them (no more retransmissions, no ack bookkeeping),
     so the conversation ends even if the copy already on the wire is
     lost. The runtime re-issues whatever it still needs after restart;
     envelopes from other senders are untouched. *)
  let engine =
    Engine.create (Machine.make ~nodes:3 ~faults:Fault.none ~fault_seed:5 ())
  in
  let m = Engine.machine engine in
  let from0 = ref 0 and from2 = ref 0 in
  Dpa_msg.Am.send engine
    ~src:(Engine.node engine 0)
    ~dst:1
    ~bytes:(m.Machine.msg_header_bytes + 8)
    (fun _ -> incr from0);
  Dpa_msg.Am.send engine
    ~src:(Engine.node engine 2)
    ~dst:1
    ~bytes:(m.Machine.msg_header_bytes + 8)
    (fun _ -> incr from2);
  let wiped = Dpa_msg.Am.on_crash engine ~node:0 in
  Alcotest.(check int) "node 0's envelope wiped" 1 wiped;
  Engine.run engine;
  (* The first copy was already in flight when the crash hit — the
     network, not the sender, holds it — so it still delivers once. *)
  Alcotest.(check int) "in-flight copy still delivers once" 1 !from0;
  Alcotest.(check int) "other sender unaffected" 1 !from2;
  match Dpa_msg.Am.stats engine with
  | None -> Alcotest.fail "protocol state missing"
  | Some s ->
    Alcotest.(check int) "crash_wiped counted" 1 s.Dpa_msg.Am.crash_wiped;
    Alcotest.(check int) "wiped envelope is no longer in flight" 0
      s.Dpa_msg.Am.in_flight;
    Alcotest.(check int) "no retransmissions for the wiped envelope" 0
      s.Dpa_msg.Am.retransmits

(* A deterministic phase with plenty of remote reads, so a mid-phase crash
   is guaranteed to orphan some outstanding requests. *)
let crash_read_phase =
  (4, 8, 10, List.init 30 (fun i -> ((i * 7) mod 4, (i * 3) mod 8)))

let test_crash_restart_refetch () =
  let reference, _, elapsed, _ = run_dpa crash_read_phase in
  let sums, stats, _, am =
    run_dpa ~faults:(crash_spec ~elapsed ()) ~fault_seed:11 crash_read_phase
  in
  Alcotest.(check bool) "sums bit-identical across crashes" true
    (reference = sums);
  Alcotest.(check int) "every node crashed once" 4 stats.Dpa.Dpa_stats.crashes;
  (* The alignment buffer and pointer-map conversations died with the
     crash; the restart walk re-fetched what was still owed. *)
  Alcotest.(check bool) "orphaned requests were re-fetched" true
    (stats.Dpa.Dpa_stats.crash_refetches > 0);
  match am with
  | None -> Alcotest.fail "protocol state missing"
  | Some s ->
    Alcotest.(check int) "quiescent: no in-flight envelopes" 0
      s.Dpa_msg.Am.in_flight

let test_update_exactly_once_across_crash () =
  (* Remote accumulates with integer increments: the owner-side journal
     must apply each batch exactly once even when crashes wipe unsent
     batches, in-flight envelopes, or the application-level acks. *)
  let run ?faults ?(fault_seed = 0x5EED) () =
    let nnodes = 4 in
    let heaps = Dpa_heap.Heap.cluster ~nnodes in
    let counters =
      Array.init 6 (fun _ ->
          Dpa_heap.Heap.alloc heaps.(0) ~floats:(Array.make 2 0.) ~ptrs:[||])
    in
    let items node =
      if node = 0 then [||]
      else
        Array.init 12 (fun i ->
            fun ctx ->
              Dpa.Runtime.charge ctx 500;
              Dpa.Runtime.accumulate ctx
                counters.((node + i) mod 6)
                ~idx:(i mod 2) 1.)
    in
    let engine =
      Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ())
    in
    let _, stats =
      Dpa.Runtime.run_phase ~engine ~heaps
        ~config:(Dpa.Config.dpa ~strip_size:4 ())
        ~items
    in
    let vals =
      Array.map
        (fun p ->
          Array.copy (Dpa_heap.Heap.deref heaps p).Dpa_heap.Obj_repr.floats)
        counters
    in
    (vals, stats, Engine.elapsed engine, Dpa_msg.Am.stats engine)
  in
  let reference, _, elapsed, _ = run () in
  let vals, stats, _, am =
    run ~faults:(crash_spec ~elapsed ()) ~fault_seed:13 ()
  in
  Alcotest.(check bool) "counters bit-identical across crashes" true
    (reference = vals);
  Alcotest.(check int) "every node crashed once" 4 stats.Dpa.Dpa_stats.crashes;
  match am with
  | None -> Alcotest.fail "protocol state missing"
  | Some s ->
    Alcotest.(check int) "quiescent: no in-flight envelopes" 0
      s.Dpa_msg.Am.in_flight

(* --- pinned recovery ------------------------------------------------------ *)

(* A fixed phase under every fault class the chaos benchmark mixes: each
   item reads three objects on other nodes and accumulates into a counter.
   Results alone cannot tell a transport rewrite that recovers differently
   from one that recovers the same way, so besides the results this pins
   every transport counter, every fault-plan counter and the runtime's two
   recovery counters, as the transport produced them before its state
   moved into slab columns. *)
let pinned_recovery_run ?(fault_seed = 0x5EED) ?spec () =
  let nnodes = 4 and nobjs = 16 and nitems = 24 and ncounters = 8 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let objs =
    Array.init nnodes (fun node ->
        Array.init nobjs (fun s ->
            Dpa_heap.Heap.alloc heaps.(node)
              ~floats:[| float_of_int ((node * 100) + s) |]
              ~ptrs:[||]))
  in
  let counters =
    Array.init ncounters (fun c ->
        Dpa_heap.Heap.alloc heaps.(c mod nnodes) ~floats:[| 0. |] ~ptrs:[||])
  in
  let sums = Array.make nnodes 0. in
  let items node =
    Array.init nitems (fun i ctx ->
        for r = 0 to 2 do
          let p = objs.((node + 1 + r + i) mod nnodes).(((i * 5) + (r * 3)) mod nobjs) in
          Dpa.Runtime.read ctx p (fun ctx view ->
              Dpa.Runtime.charge ctx 100;
              sums.(node) <-
                sums.(node)
                +. Dpa_heap.Heap.view_float (Dpa.Runtime.heaps ctx) view 0)
        done;
        Dpa.Runtime.accumulate ctx
          counters.(((node * 3) + i) mod ncounters)
          ~idx:0 1.)
  in
  let engine =
    Engine.create (Machine.make ~nodes:nnodes ?faults:spec ~fault_seed ())
  in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:4 ~agg_max:4 ())
      ~items
  in
  let vals =
    Array.map (fun p -> Dpa_heap.Heap.view_float heaps p 0) counters
  in
  (sums, vals, stats, engine)

let test_pinned_recovery () =
  let sums0, vals0, _, engine0 = pinned_recovery_run () in
  let elapsed = Engine.elapsed engine0 in
  let spec =
    match
      Fault.spec_of_string
        (Printf.sprintf
           "drop=0.05,dup=0.02,delay=0.1,corrupt=0.02,torn-wal=1,crashes=1,crash-ns=%d,horizon-ns=%d"
           (max 1_000 (elapsed / 8))
           (max 1_000 (elapsed / 2)))
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (fault_seed, expected) ->
      let sums, vals, stats, engine = pinned_recovery_run ~fault_seed ~spec () in
      let name what = Printf.sprintf "fault seed %d: %s" fault_seed what in
      Alcotest.(check bool) (name "sums equal the faults-off run") true
        (sums = sums0);
      Alcotest.(check bool) (name "counters equal the faults-off run") true
        (vals = vals0);
      let am = Option.get (Dpa_msg.Am.stats engine) in
      let plan = Option.get (Engine.fault engine) in
      let actual =
        [
          ("am.in_flight", am.Dpa_msg.Am.in_flight);
          ("am.retransmits", am.Dpa_msg.Am.retransmits);
          ("am.retransmit_bytes", am.Dpa_msg.Am.retransmit_bytes);
          ("am.acks", am.Dpa_msg.Am.acks);
          ("am.dups_suppressed", am.Dpa_msg.Am.dups_suppressed);
          ("am.seen_entries", am.Dpa_msg.Am.seen_entries);
          ("am.pruned", am.Dpa_msg.Am.pruned);
          ("am.fenced", am.Dpa_msg.Am.fenced);
          ("am.crash_wiped", am.Dpa_msg.Am.crash_wiped);
          ("am.corrupt_dropped", am.Dpa_msg.Am.corrupt_dropped);
          ("fault.drops", Fault.drops plan);
          ("fault.dups", Fault.dups plan);
          ("fault.delayed", Fault.delayed plan);
          ("fault.outage_drops", Fault.outage_drops plan);
          ("fault.crash_drops", Fault.crash_drops plan);
          ("fault.corruptions", Fault.corruptions plan);
          ("fault.tears", Fault.tears plan);
          ("runtime.rt_retries", stats.Dpa.Dpa_stats.rt_retries);
          ("runtime.crash_refetches", stats.Dpa.Dpa_stats.crash_refetches);
          ("runtime.crashes", stats.Dpa.Dpa_stats.crashes);
          ("elapsed_ns", Engine.elapsed engine);
        ]
      in
      Alcotest.(check (list (pair string int)))
        (name "recovery counters") expected actual)
    (* Two fault seeds whose runs fire the request wheel and fence a
       stale copy, besides every other recovery path. *)
    [
      ( 15,
        [
          ("am.in_flight", 0); ("am.retransmits", 46);
          ("am.retransmit_bytes", 2072); ("am.acks", 318);
          ("am.dups_suppressed", 26); ("am.seen_entries", 0);
          ("am.pruned", 299); ("am.fenced", 1); ("am.crash_wiped", 14);
          ("am.corrupt_dropped", 8); ("fault.drops", 37); ("fault.dups", 10);
          ("fault.delayed", 57); ("fault.outage_drops", 0);
          ("fault.crash_drops", 15); ("fault.corruptions", 8);
          ("fault.tears", 8); ("runtime.rt_retries", 2);
          ("runtime.crash_refetches", 10); ("runtime.crashes", 4);
          ("elapsed_ns", 2192817);
        ] );
      ( 51,
        [
          ("am.in_flight", 0); ("am.retransmits", 60);
          ("am.retransmit_bytes", 2840); ("am.acks", 331);
          ("am.dups_suppressed", 27); ("am.seen_entries", 0);
          ("am.pruned", 311); ("am.fenced", 1); ("am.crash_wiped", 14);
          ("am.corrupt_dropped", 19); ("fault.drops", 41); ("fault.dups", 19);
          ("fault.delayed", 71); ("fault.outage_drops", 0);
          ("fault.crash_drops", 18); ("fault.corruptions", 19);
          ("fault.tears", 8); ("runtime.rt_retries", 3);
          ("runtime.crash_refetches", 19); ("runtime.crashes", 4);
          ("elapsed_ns", 3521096);
        ] );
    ]

let crash_chaos_gen =
  QCheck.Gen.(
    pair Test_properties.phase_gen (pair (int_range 1 2) (int_range 0 1000)))

let qcheck_crashes_preserve_sums =
  QCheck.Test.make
    ~name:"DPA phase under crash-restart computes fault-free sums" ~count:20
    (QCheck.make crash_chaos_gen)
    (fun (phase, (crashes, seed)) ->
      let reference, _, elapsed, _ = run_dpa phase in
      let sums, _, _, am =
        run_dpa ~faults:(crash_spec ~crashes ~elapsed ()) ~fault_seed:seed
          phase
      in
      reference = sums
      && match am with Some s -> s.Dpa_msg.Am.in_flight = 0 | None -> true)

(* --- sink knobs and the periodic sampler --------------------------------- *)

let test_sink_category_filter () =
  let s = Dpa_obs.Sink.create () in
  Dpa_obs.Sink.set_categories s (Some [ "phase"; "fault" ]);
  Dpa_obs.Sink.span s ~cat:"phase" ~name:"p" ~node:0 ~ts:0 ~dur:10;
  Dpa_obs.Sink.span s ~cat:"strip" ~name:"s" ~node:0 ~ts:0 ~dur:5;
  Dpa_obs.Sink.instant s ~cat:"fault" ~name:"drop" ~node:0 ~ts:1;
  Dpa_obs.Sink.instant s ~cat:"msg" ~name:"m" ~node:0 ~ts:2;
  Alcotest.(check int) "kept" 2 (List.length (Dpa_obs.Sink.events s));
  Alcotest.(check int) "filtered" 2 (Dpa_obs.Sink.filtered s);
  Alcotest.(check int) "spans" 1 (Dpa_obs.Sink.nspans s)

let test_sink_spans_only () =
  let s = Dpa_obs.Sink.create () in
  Dpa_obs.Sink.set_spans_only s true;
  Dpa_obs.Sink.span s ~cat:"phase" ~name:"p" ~node:0 ~ts:0 ~dur:10;
  Dpa_obs.Sink.instant s ~cat:"fault" ~name:"drop" ~node:0 ~ts:1;
  Dpa_obs.Sink.counter s ~name:"c" ~node:0 ~ts:2 5;
  Alcotest.(check int) "kept" 1 (List.length (Dpa_obs.Sink.events s));
  Alcotest.(check int) "filtered" 2 (Dpa_obs.Sink.filtered s)

let sampler_phase =
  (3, 5, 4, List.init 12 (fun i -> (i mod 3, i * 2 mod 5)))

let test_engine_sampler () =
  let bare_sums, _, bare_elapsed, _ = run_dpa sampler_phase in
  let sink = Dpa_obs.Sink.create () in
  Dpa_obs.Sink.set_sample_period sink 20_000;
  let saved = Dpa_obs.Sink.global () in
  Dpa_obs.Sink.set_global (Some sink);
  let sums, _, elapsed, _ =
    Fun.protect
      ~finally:(fun () -> Dpa_obs.Sink.set_global saved)
      (fun () -> run_dpa sampler_phase)
  in
  Alcotest.(check bool) "sums unchanged by sampling" true (bare_sums = sums);
  Alcotest.(check int) "timing bit-identical with sampler on" bare_elapsed
    elapsed;
  let track name =
    List.length
      (List.filter
         (fun (e : Dpa_obs.Sink.event) ->
           e.Dpa_obs.Sink.kind = Dpa_obs.Sink.Counter
           && e.Dpa_obs.Sink.name = name)
         (Dpa_obs.Sink.events sink))
  in
  Alcotest.(check bool) "dbuf track sampled" true (track "dbuf" > 0);
  Alcotest.(check bool) "outstanding track sampled" true
    (track "outstanding" > 0)

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "spec presets" `Quick test_spec_presets;
        Alcotest.test_case "spec key=value parsing" `Quick test_spec_key_values;
        Alcotest.test_case "spec rejects bad input" `Quick test_spec_errors;
        Alcotest.test_case "plan is deterministic" `Quick test_plan_determinism;
        Alcotest.test_case "plan validation" `Quick test_plan_validation;
        Alcotest.test_case "preset prefix with knob overrides" `Quick
          test_spec_preset_override;
        Alcotest.test_case "errors enumerate valid keys" `Quick
          test_spec_errors_enumerate_keys;
        Alcotest.test_case "judge allocates nothing" `Quick
          test_judge_allocates_nothing;
      ] );
    ( "reliable delivery",
      [
        Alcotest.test_case "exactly-once under drop+dup+delay" `Quick
          test_exactly_once;
        Alcotest.test_case "none plan: protocol overhead only" `Quick
          test_none_plan_protocol_overhead_only;
        Alcotest.test_case "no plan: no protocol state" `Quick
          test_no_plan_no_protocol;
        Alcotest.test_case "recovers from a NIC outage" `Quick
          test_outage_recovery;
        QCheck_alcotest.to_alcotest qcheck_faults_preserve_sums;
        QCheck_alcotest.to_alcotest qcheck_chaos_deterministic;
        QCheck_alcotest.to_alcotest qcheck_caching_survives_faults;
      ] );
    ( "crash-restart",
      [
        Alcotest.test_case "incarnation fencing rejects stale copies" `Quick
          test_incarnation_fencing;
        Alcotest.test_case "crash wipes the crashed sender's envelopes" `Quick
          test_am_on_crash_wipes_sender_state;
        Alcotest.test_case "restart re-fetches orphaned reads" `Quick
          test_crash_restart_refetch;
        Alcotest.test_case "updates apply exactly once across crashes" `Quick
          test_update_exactly_once_across_crash;
        QCheck_alcotest.to_alcotest qcheck_crashes_preserve_sums;
        Alcotest.test_case "pinned recovery counters" `Quick
          test_pinned_recovery;
      ] );
    ( "chaos observability",
      [
        Alcotest.test_case "sink category filter" `Quick
          test_sink_category_filter;
        Alcotest.test_case "sink spans-only filter" `Quick test_sink_spans_only;
        Alcotest.test_case "periodic sampler is free" `Quick
          test_engine_sampler;
      ] );
  ]
