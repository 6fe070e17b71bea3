(* Tests of the remote-reduction extension: the update buffer, the
   [accumulate] operation under every runtime, and the parallel FMM upward
   pass built on it. *)

open Dpa_sim
open Dpa_heap

let machine nodes = Machine.t3d ~nodes

(* --- update buffer ------------------------------------------------------ *)

let p ~node ~slot = Gptr.make ~node ~slot

(* A flushed batch as its (pointer, field, value) entries, read while the
   flush callback runs. *)
let entries batch =
  List.init (Dpa.Update_buffer.batch_length batch) (fun i ->
      let k = Dpa.Update_buffer.batch_key batch i in
      ( Dpa.Update_buffer.key_ptr k,
        Dpa.Update_buffer.key_idx k,
        Dpa.Update_buffer.batch_value batch i ))

let values batch = List.map (fun (_, _, v) -> v) (entries batch)

let test_update_buffer_combines () =
  let out = ref [] in
  let b =
    Dpa.Update_buffer.create ~ndest:2 ~combine:true ~max_batch:100
      ~flush:(fun ~dst batch -> out := (dst, entries batch) :: !out)
      ()
  in
  Dpa.Update_buffer.add b ~dst:1 (p ~node:1 ~slot:0) ~idx:3 1.0;
  Dpa.Update_buffer.add b ~dst:1 (p ~node:1 ~slot:0) ~idx:3 2.0;
  Dpa.Update_buffer.add b ~dst:1 (p ~node:1 ~slot:0) ~idx:4 5.0;
  Alcotest.(check int) "two distinct slots" 2 (Dpa.Update_buffer.pending b);
  Alcotest.(check int) "one combined" 1 (Dpa.Update_buffer.combined b);
  Dpa.Update_buffer.flush_all b;
  (match !out with
  | [ (1, batch) ] ->
    let find idx =
      let _, _, v = List.find (fun (_, i, _) -> i = idx) batch in
      v
    in
    Alcotest.(check (float 1e-12)) "combined sum" 3.0 (find 3);
    Alcotest.(check (float 1e-12)) "other slot" 5.0 (find 4)
  | _ -> Alcotest.fail "expected one flush to dst 1");
  Alcotest.(check int) "entries counted" 2 (Dpa.Update_buffer.sent_entries b)

let test_update_buffer_no_combine () =
  let batches = ref 0 and entries = ref 0 in
  let b =
    Dpa.Update_buffer.create ~ndest:1 ~combine:false ~max_batch:100
      ~flush:(fun ~dst:_ batch ->
        incr batches;
        entries := !entries + Dpa.Update_buffer.batch_length batch)
      ()
  in
  (* Same slot twice: without combining both updates must survive (the
     buffer flushes eagerly on the collision). *)
  Dpa.Update_buffer.add b ~dst:0 (p ~node:0 ~slot:0) ~idx:0 1.0;
  Dpa.Update_buffer.add b ~dst:0 (p ~node:0 ~slot:0) ~idx:0 2.0;
  Dpa.Update_buffer.flush_all b;
  Alcotest.(check int) "no loss" 2 !entries;
  Alcotest.(check int) "no combining" 0 (Dpa.Update_buffer.combined b)

let test_update_buffer_eager_flush () =
  let batches = ref [] in
  let b =
    Dpa.Update_buffer.create ~ndest:1 ~combine:true ~max_batch:3
      ~flush:(fun ~dst:_ batch ->
        batches := Dpa.Update_buffer.batch_length batch :: !batches)
      ()
  in
  for slot = 0 to 6 do
    Dpa.Update_buffer.add b ~dst:0 (p ~node:0 ~slot) ~idx:0 1.0
  done;
  Dpa.Update_buffer.flush_all b;
  Alcotest.(check (list int)) "batch sizes" [ 1; 3; 3 ] !batches

let test_update_buffer_hold_and_flush_if () =
  let out = ref [] in
  let b =
    Dpa.Update_buffer.create
      ~hold:(fun dst -> dst = 1)
      ~ndest:2 ~combine:true ~max_batch:2
      ~flush:(fun ~dst batch ->
        out := (dst, Dpa.Update_buffer.batch_length batch) :: !out)
      ()
  in
  (* dst 1 is held: crossing max_batch must not flush eagerly. *)
  for slot = 0 to 4 do
    Dpa.Update_buffer.add b ~dst:1 (p ~node:1 ~slot) ~idx:0 1.0
  done;
  Alcotest.(check (list (pair int int))) "held across max_batch" [] !out;
  (* dst 0 still flushes eagerly at the bound. *)
  for slot = 0 to 2 do
    Dpa.Update_buffer.add b ~dst:0 (p ~node:0 ~slot) ~idx:0 1.0
  done;
  Alcotest.(check (list (pair int int))) "unheld eager" [ (0, 2) ] !out;
  (* The strip-boundary flush skips destinations its predicate rejects. *)
  Dpa.Update_buffer.flush_if b (fun d -> d <> 1);
  Alcotest.(check (list (pair int int)))
    "flush_if skips held"
    [ (0, 1); (0, 2) ]
    !out;
  Dpa.Update_buffer.flush_all b;
  Alcotest.(check (list (pair int int)))
    "flush_all drains held"
    [ (1, 5); (0, 1); (0, 2) ]
    !out

let test_update_buffer_held_collision () =
  (* Regression: the non-combining aliased-key collision path used to call
     [flush_dst] unconditionally, bypassing the [hold] predicate — a held
     (routed) destination could be flushed mid-strip, breaking the
     phase-long merge window. Held buckets must keep aliased keys as
     distinct coexisting entries until the explicit [flush_all]. *)
  let out = ref [] in
  let b =
    Dpa.Update_buffer.create
      ~hold:(fun dst -> dst = 1)
      ~ndest:2 ~combine:false ~max_batch:100
      ~flush:(fun ~dst batch ->
        out := (dst, values batch) :: !out)
      ()
  in
  Dpa.Update_buffer.add b ~dst:1 (p ~node:1 ~slot:0) ~idx:0 1.0;
  Dpa.Update_buffer.add b ~dst:1 (p ~node:1 ~slot:0) ~idx:0 2.0;
  Dpa.Update_buffer.add b ~dst:1 (p ~node:1 ~slot:0) ~idx:0 4.0;
  Alcotest.(check (list (pair int (list (float 0.)))))
    "held bucket never flushes on collision" [] !out;
  Alcotest.(check int) "all aliases pending" 3 (Dpa.Update_buffer.pending b);
  (* An unheld destination keeps the eager collision flush. *)
  Dpa.Update_buffer.add b ~dst:0 (p ~node:0 ~slot:0) ~idx:0 8.0;
  Dpa.Update_buffer.add b ~dst:0 (p ~node:0 ~slot:0) ~idx:0 16.0;
  Alcotest.(check (list (pair int (list (float 0.)))))
    "unheld collision flushes eagerly"
    [ (0, [ 8.0 ]) ]
    !out;
  Dpa.Update_buffer.flush_all b;
  Alcotest.(check (list (pair int (list (float 0.)))))
    "every aliased entry survives to the final flush"
    [ (1, [ 1.0; 2.0; 4.0 ]); (0, [ 16.0 ]); (0, [ 8.0 ]) ]
    !out;
  Alcotest.(check int) "nothing lost" 5 (Dpa.Update_buffer.sent_entries b)

let test_update_buffer_clear () =
  let flushed = ref 0 in
  let b =
    Dpa.Update_buffer.create ~ndest:2 ~combine:true ~max_batch:100
      ~flush:(fun ~dst:_ batch ->
        flushed := !flushed + Dpa.Update_buffer.batch_length batch)
      ()
  in
  Dpa.Update_buffer.add b ~dst:0 (p ~node:0 ~slot:0) ~idx:0 1.0;
  Dpa.Update_buffer.add b ~dst:1 (p ~node:1 ~slot:0) ~idx:0 2.0;
  Dpa.Update_buffer.add b ~dst:1 (p ~node:1 ~slot:1) ~idx:0 3.0;
  Alcotest.(check int) "wiped count" 3 (Dpa.Update_buffer.clear b);
  Alcotest.(check int) "nothing pending" 0 (Dpa.Update_buffer.pending b);
  Dpa.Update_buffer.flush_all b;
  Alcotest.(check int) "nothing reaches the flush" 0 !flushed;
  (* The buffer stays usable after a wipe. *)
  Dpa.Update_buffer.add b ~dst:0 (p ~node:0 ~slot:2) ~idx:0 5.0;
  Dpa.Update_buffer.flush_all b;
  Alcotest.(check int) "fresh entries still flush" 1 !flushed

(* The relay path: a batch flushed from one buffer merges entry by entry
   into another, combining with what that one already holds, and leaves
   it as one batch in first-added order. *)
let test_update_buffer_merges_flushed_batch () =
  let out = ref [] in
  let relay =
    Dpa.Update_buffer.create ~ndest:1 ~combine:true ~max_batch:100
      ~flush:(fun ~dst batch -> out := (dst, entries batch) :: !out)
      ()
  in
  let origin =
    Dpa.Update_buffer.create ~ndest:1 ~combine:true ~max_batch:100
      ~flush:(fun ~dst batch ->
        List.iter
          (fun (ptr, idx, v) -> Dpa.Update_buffer.add relay ~dst ptr ~idx v)
          (entries batch))
      ()
  in
  Dpa.Update_buffer.add relay ~dst:0 (p ~node:0 ~slot:0) ~idx:0 1.0;
  Dpa.Update_buffer.add origin ~dst:0 (p ~node:0 ~slot:0) ~idx:0 2.0;
  Dpa.Update_buffer.add origin ~dst:0 (p ~node:0 ~slot:1) ~idx:0 3.0;
  Dpa.Update_buffer.flush_all origin;
  Alcotest.(check int)
    "merged entries combine" 1
    (Dpa.Update_buffer.combined relay);
  Alcotest.(check int) "two slots pending" 2 (Dpa.Update_buffer.pending relay);
  Dpa.Update_buffer.flush_all relay;
  match !out with
  | [ (0, [ (a, _, va); (c, _, vc) ]) ] ->
    Alcotest.(check int) "merged slot first" 0 (Gptr.slot a);
    Alcotest.(check (float 1e-12)) "merged slot" 3.0 va;
    Alcotest.(check int) "fresh slot second" 1 (Gptr.slot c);
    Alcotest.(check (float 1e-12)) "fresh slot" 3.0 vc
  | _ -> Alcotest.fail "expected one two-entry flush"

let qcheck_update_buffer_sum_preserved =
  QCheck.Test.make ~name:"update buffer preserves per-slot totals" ~count:200
    QCheck.(
      small_list (triple (int_range 0 3) (int_range 0 2) (float_range (-5.) 5.)))
    (fun adds ->
      let applied = Hashtbl.create 16 in
      let b =
        Dpa.Update_buffer.create ~ndest:4 ~combine:true ~max_batch:4
          ~flush:(fun ~dst batch ->
            List.iter
              (fun (ptr, idx, v) ->
                let key = (dst, ptr, idx) in
                let cur = Option.value ~default:0. (Hashtbl.find_opt applied key) in
                Hashtbl.replace applied key (cur +. v))
              (entries batch))
          ()
      in
      List.iter
        (fun (slot, idx, v) ->
          Dpa.Update_buffer.add b ~dst:(slot mod 4) (p ~node:0 ~slot) ~idx v)
        adds;
      Dpa.Update_buffer.flush_all b;
      let want = Hashtbl.create 16 in
      List.iter
        (fun (slot, idx, v) ->
          let key = (slot mod 4, p ~node:0 ~slot, idx) in
          let cur = Option.value ~default:0. (Hashtbl.find_opt want key) in
          Hashtbl.replace want key (cur +. v))
        adds;
      Hashtbl.fold
        (fun key v ok ->
          ok
          && Float.abs (v -. Option.value ~default:nan (Hashtbl.find_opt applied key))
             < 1e-9)
        want true)

(* A target packs into one int and back; a field or node the packing
   cannot hold is refused, not wrapped into another target's key. *)
let test_update_buffer_keys () =
  let module U = Dpa.Update_buffer in
  let ptr = p ~node:4095 ~slot:((1 lsl 40) - 1) in
  let k = U.key ptr ~idx:1023 in
  Alcotest.(check bool) "non-negative" true (k >= 0);
  Alcotest.(check bool) "pointer round-trips" true (Gptr.equal (U.key_ptr k) ptr);
  Alcotest.(check int) "field round-trips" 1023 (U.key_idx k);
  Alcotest.(check int) "node" 4095 (U.key_node k);
  let refused f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "field 1024" true (refused (fun () -> U.key ptr ~idx:1024));
  Alcotest.(check bool) "negative field" true
    (refused (fun () -> U.key ptr ~idx:(-1)));
  Alcotest.(check bool) "node 4096" true
    (refused (fun () -> U.key (p ~node:4096 ~slot:0) ~idx:0));
  Alcotest.(check bool) "nil" true (refused (fun () -> U.key Gptr.nil ~idx:0))

(* Model-based property: drive the columnar buffer with a random mix of
   adds (few targets, so keys collide), [flush_all], [flush_if] and
   [clear], under every combination of combining and held destinations,
   and mirror it with per-destination entry lists. Everything flushed —
   destination, entries, their order and values — and every counter must
   agree with the model. *)
let qcheck_update_buffer_model =
  let ndest = 3 in
  let op =
    QCheck.(
      map
        (fun (kind, (dst, slot, idx), v) ->
          match kind mod 12 with
          | 0 -> `Flush_all
          | 1 -> `Flush_if (dst land 1)
          | 2 -> `Clear
          | _ -> `Add (dst, slot, idx, float_of_int v))
        (triple small_nat
           (triple (int_range 0 (ndest - 1)) (int_range 0 3) (int_range 0 1))
           (int_range (-8) 8)))
  in
  QCheck.Test.make ~name:"columnar update buffer matches a list model"
    ~count:500
    QCheck.(
      quad bool (int_range 1 5) (int_range 0 ((1 lsl ndest) - 1)) (list op))
    (fun (combine, max_batch, held, ops) ->
      let hold dst = held land (1 lsl dst) <> 0 in
      let out = ref [] in
      let b =
        Dpa.Update_buffer.create ~hold ~ndest ~combine ~max_batch
          ~flush:(fun ~dst batch -> out := (dst, entries batch) :: !out)
          ()
      in
      (* The model: per destination, its entries in insertion order. *)
      let model = Array.make ndest [] in
      let model_out = ref [] and combined = ref 0 and cleared = ref [] in
      let model_flush dst =
        if model.(dst) <> [] then begin
          model_out := (dst, model.(dst)) :: !model_out;
          model.(dst) <- []
        end
      in
      let model_add dst ptr idx v =
        let same (q, i, _) = Gptr.equal q ptr && i = idx in
        if combine && List.exists same model.(dst) then begin
          incr combined;
          model.(dst) <-
            List.map
              (fun ((q, i, w) as e) -> if same e then (q, i, w +. v) else e)
              model.(dst)
        end
        else begin
          if List.exists same model.(dst) && not (hold dst) then
            model_flush dst;
          model.(dst) <- model.(dst) @ [ (ptr, idx, v) ]
        end;
        if List.length model.(dst) >= max_batch && not (hold dst) then
          model_flush dst
      in
      let got_cleared = ref [] in
      List.iter
        (function
          | `Add (dst, slot, idx, v) ->
            let ptr = p ~node:dst ~slot in
            Dpa.Update_buffer.add b ~dst ptr ~idx v;
            model_add dst ptr idx v
          | `Flush_all ->
            Dpa.Update_buffer.flush_all b;
            for dst = 0 to ndest - 1 do
              model_flush dst
            done
          | `Flush_if k ->
            Dpa.Update_buffer.flush_if b (fun d -> d land 1 = k);
            for dst = 0 to ndest - 1 do
              if dst land 1 = k then model_flush dst
            done
          | `Clear ->
            got_cleared := Dpa.Update_buffer.clear b :: !got_cleared;
            cleared :=
              Array.fold_left (fun n l -> n + List.length l) 0 model
              :: !cleared;
            Array.fill model 0 ndest [])
        ops;
      let pending = Array.fold_left (fun n l -> n + List.length l) 0 model in
      let sent =
        List.fold_left (fun n (_, l) -> n + List.length l) 0 !model_out
      in
      !out = !model_out
      && !got_cleared = !cleared
      && Dpa.Update_buffer.pending b = pending
      && Dpa.Update_buffer.combined b = !combined
      && Dpa.Update_buffer.sent_entries b = sent
      && Dpa.Update_buffer.messages b = List.length !model_out)

(* --- accumulate through the runtimes ------------------------------------ *)

let accumulate_phase (type c) (module A : Dpa.Access.S with type ctx = c)
    run_phase =
  let nnodes = 3 in
  let heaps = Heap.cluster ~nnodes in
  (* One counter object per node; every node bumps every counter 5 times. *)
  let counters =
    Array.init nnodes (fun node ->
        Heap.alloc heaps.(node) ~floats:[| 0.; 0. |] ~ptrs:[||])
  in
  let items node =
    Array.init 5 (fun i ->
        fun (ctx : c) ->
          Array.iter
            (fun c ->
              A.accumulate ctx c ~idx:0 1.0;
              A.accumulate ctx c ~idx:1 (float_of_int (node + i)))
            counters)
  in
  run_phase heaps items;
  (heaps, counters)

let check_counters name (heaps, counters) =
  Array.iter
    (fun c ->
      let v = Heap.deref heaps c in
      Alcotest.(check (float 1e-9))
        (name ^ " count") 15.0 v.Obj_repr.floats.(0);
      (* sum over node in 0..2, i in 0..4 of (node+i) = 3*10 + 5*3 = 45 *)
      Alcotest.(check (float 1e-9)) (name ^ " sum") 45.0 v.Obj_repr.floats.(1))
    counters

let test_accumulate_dpa () =
  check_counters "dpa"
    (accumulate_phase
       (module Dpa.Runtime)
       (fun heaps items ->
         let engine = Engine.create (machine 3) in
         ignore
           (Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ())
              ~items)))

let test_accumulate_dpa_no_combine () =
  check_counters "pipeline"
    (accumulate_phase
       (module Dpa.Runtime)
       (fun heaps items ->
         let engine = Engine.create (machine 3) in
         ignore
           (Dpa.Runtime.run_phase ~engine ~heaps
              ~config:(Dpa.Config.pipeline_only ())
              ~items)))

let test_accumulate_caching () =
  check_counters "caching"
    (accumulate_phase
       (module Dpa_baselines.Caching)
       (fun heaps items ->
         let engine = Engine.create (machine 3) in
         ignore
           (Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:16 ~items
              ())))

let test_accumulate_blocking () =
  check_counters "blocking"
    (accumulate_phase
       (module Dpa_baselines.Caching)
       (fun heaps items ->
         let engine = Engine.create (machine 3) in
         ignore
           (Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:0
              ~hash:false ~items ())))

let test_dpa_combining_reduces_messages () =
  let run config =
    let nnodes = 2 in
    let heaps = Heap.cluster ~nnodes in
    let counter = Heap.alloc heaps.(1) ~floats:[| 0. |] ~ptrs:[||] in
    let engine = Engine.create (machine nnodes) in
    let items node =
      if node <> 0 then [||]
      else
        Array.init 32 (fun _ ->
            fun ctx -> Dpa.Runtime.accumulate ctx counter ~idx:0 1.0)
    in
    let _, stats = Dpa.Runtime.run_phase ~engine ~heaps ~config ~items in
    Alcotest.(check (float 1e-9)) "applied" 32.
      (Heap.deref heaps counter).Obj_repr.floats.(0);
    stats
  in
  let combined = run (Dpa.Config.dpa ~strip_size:32 ()) in
  let plain = run (Dpa.Config.pipeline_only ~strip_size:32 ()) in
  Alcotest.(check bool) "combining collapses updates" true
    (combined.Dpa.Dpa_stats.update_msgs < plain.Dpa.Dpa_stats.update_msgs);
  Alcotest.(check bool) "combines counted" true
    (combined.Dpa.Dpa_stats.updates_combined > 0)

(* --- routed aggregation -------------------------------------------------- *)

(* Fan-in workload: every node bumps the same four counters, all owned by
   node 0, across many strips. Flat aggregation re-sends the counters at
   every strip boundary; the phase-long hold window plus en-route combining
   of the binomial reduction tree collapses that to one merged message per
   tree edge. Integer-valued floats keep every sum exact, so flat and
   routed runs must agree bit for bit. *)
let run_fanin ?faults ?(fault_seed = 0x5EED) ~route () =
  let nnodes = 8 in
  let heaps = Heap.cluster ~nnodes in
  let counters =
    Array.init 4 (fun _ ->
        Heap.alloc heaps.(0) ~floats:[| 0.; 0. |] ~ptrs:[||])
  in
  let items node =
    Array.init 32 (fun i ->
        fun ctx ->
          Dpa.Runtime.charge ctx 1_000;
          let c = counters.(i mod 4) in
          Dpa.Runtime.accumulate ctx c ~idx:0 1.0;
          Dpa.Runtime.accumulate ctx c ~idx:1 (float_of_int ((node * 32) + i)))
  in
  let engine =
    Engine.create (Machine.make ~nodes:nnodes ?faults ~fault_seed ())
  in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:4 ~route ())
      ~items
  in
  let vals =
    Array.map
      (fun c -> Array.copy (Heap.deref heaps c).Obj_repr.floats)
      counters
  in
  (vals, stats)

let test_routed_bit_identical_and_fewer_messages () =
  let flat, flat_stats = run_fanin ~route:Dpa.Config.Off () in
  let routed, routed_stats = run_fanin ~route:Dpa.Config.All_dsts () in
  let hot, hot_stats = run_fanin ~route:(Dpa.Config.Hot [ 0 ]) () in
  Alcotest.(check bool) "All_dsts bit-identical to flat" true (flat = routed);
  Alcotest.(check bool) "Hot bit-identical to flat" true (flat = hot);
  (* 7 senders x 8 strips flat vs one held-and-merged message per tree
     edge: the routed phase must move strictly fewer update messages. *)
  Alcotest.(check bool) "tree routing collapses update messages" true
    (routed_stats.Dpa.Dpa_stats.update_msgs
    < flat_stats.Dpa.Dpa_stats.update_msgs);
  Alcotest.(check bool) "hot routing matches all-dsts here" true
    (hot_stats.Dpa.Dpa_stats.update_msgs
    = routed_stats.Dpa.Dpa_stats.update_msgs)

let test_routed_under_faults_exact_and_replayable () =
  (* drop/dup/delay (no crashes): link-level reliability covers the
     intermediate hops, the WAL protocol the final ones — the reduction
     stays exact, and the seeded schedule replays bit-identically. *)
  let reference, _ = run_fanin ~route:Dpa.Config.All_dsts () in
  let faulted, stats =
    run_fanin ~faults:Workload.heavy_faults ~fault_seed:41 ~route:Dpa.Config.All_dsts ()
  in
  Alcotest.(check bool) "routed reduction exact under heavy faults" true
    (reference = faulted);
  let faulted2, stats2 =
    run_fanin ~faults:Workload.heavy_faults ~fault_seed:41 ~route:Dpa.Config.All_dsts ()
  in
  Alcotest.(check bool) "routed fault schedule replays" true
    (faulted = faulted2 && stats = stats2)

let test_routed_survives_crash_plans () =
  (* Routed aggregation used to reject crash fault plans at phase start
     (relay buffers are volatile); the origin-anchored end-to-end ack now
     keeps every routed batch under its origin's custody until the final
     owner acknowledges it, so the combination runs — and stays exact.
     Deeper crash schedules (relay wipes, origin crashes, ack loss) are
     exercised in test_route_crash.ml. *)
  let crashy = { Fault.none with Fault.crashes = 1; crash_ns = 10_000 } in
  let reference, _ = run_fanin ~route:Dpa.Config.Off () in
  let routed, _ = run_fanin ~faults:crashy ~route:Dpa.Config.All_dsts () in
  Alcotest.(check bool) "routed under a crash plan is exact" true
    (reference = routed);
  (* Flat mode under the same plan still runs (crash recovery owns it). *)
  ignore (run_fanin ~faults:crashy ~route:Dpa.Config.Off ())

let test_route_config_validation () =
  (try
     ignore (Dpa.Config.dpa ~route:(Dpa.Config.Hot []) ());
     Alcotest.fail "expected empty Hot rejection"
   with Invalid_argument _ -> ());
  (try
     ignore (Dpa.Config.dpa ~route:(Dpa.Config.Hot [ -1 ]) ());
     Alcotest.fail "expected negative Hot rejection"
   with Invalid_argument _ -> ());
  try
    ignore (run_fanin ~route:(Dpa.Config.Hot [ 99 ]) ());
    Alcotest.fail "expected out-of-range Hot rejection"
  with Invalid_argument _ -> ()

(* --- parallel FMM upward pass ------------------------------------------- *)

let upward_setup ~nparticles =
  let parts = Dpa_fmm.Particle2d.uniform ~n:nparticles ~seed:31 in
  let tree = Dpa_fmm.Quadtree.build ~target_occupancy:6 parts in
  let params =
    { Dpa_fmm.Fmm_force.default_params with Dpa_fmm.Fmm_force.p = 8 }
  in
  (tree, params)

let expansions_match tree global reference =
  let ok = ref true in
  for ci = 0 to Dpa_fmm.Quadtree.ncells tree - 1 do
    if Dpa_fmm.Quadtree.level_of tree ci >= 2 then begin
      let got =
        Dpa_fmm.Fmm_global.View.expansion global.Dpa_fmm.Fmm_global.heaps
          global.Dpa_fmm.Fmm_global.mp_ptrs.(ci)
      in
      Array.iteri
        (fun k c ->
          if Complex.norm (Complex.sub c reference.(ci).(k)) > 1e-9 then
            ok := false)
        got
    end
  done;
  !ok

let run_upward variant =
  (* 3 nodes: block cuts fall inside Morton sibling groups, so some
     parents are remote from their children and updates cross the wire. *)
  let nnodes = 3 in
  let tree, params = upward_setup ~nparticles:500 in
  let global =
    Dpa_fmm.Fmm_global.distribute_empty ~p:params.Dpa_fmm.Fmm_force.p tree
      ~nnodes
  in
  let engine = Engine.create (machine nnodes) in
  let r = Dpa_fmm.Fmm_upward.run ~engine ~global ~params variant in
  let reference = Dpa_fmm.Fmm_seq.upward ~p:params.Dpa_fmm.Fmm_force.p tree in
  (tree, global, r, reference)

let test_upward_dpa_matches_seq () =
  let tree, global, _, reference = run_upward (Dpa_baselines.Variant.dpa ()) in
  Alcotest.(check bool) "multipoles equal sequential" true
    (expansions_match tree global reference)

let test_upward_caching_matches_seq () =
  let tree, global, _, reference =
    run_upward (Dpa_baselines.Variant.Caching { capacity = 64 })
  in
  Alcotest.(check bool) "multipoles equal sequential" true
    (expansions_match tree global reference)

let test_upward_then_force_pipeline () =
  (* Full pipeline: empty distribution, parallel upward, then the force
     phase — results must match the all-sequential-upward path. *)
  let nnodes = 4 in
  let tree, params = upward_setup ~nparticles:300 in
  let global =
    Dpa_fmm.Fmm_global.distribute_empty ~p:params.Dpa_fmm.Fmm_force.p tree
      ~nnodes
  in
  let engine = Engine.create (machine nnodes) in
  ignore
    (Dpa_fmm.Fmm_upward.run ~engine ~global ~params
       (Dpa_baselines.Variant.dpa ()));
  let phase =
    Dpa_fmm.Fmm_run.force_phase ~engine ~global ~params
      (Dpa_baselines.Variant.dpa ())
  in
  let seq, _ = Dpa_fmm.Fmm_seq.compute ~p:params.Dpa_fmm.Fmm_force.p tree in
  Array.iteri
    (fun i want ->
      if
        Float.abs
          (want -. phase.Dpa_fmm.Fmm_run.result.Dpa_fmm.Fmm_seq.potential.(i))
        > 1e-8
      then Alcotest.failf "potential %d differs" i)
    seq.Dpa_fmm.Fmm_seq.potential

let test_upward_routed_bit_identical () =
  (* The M2M fan-in through the binomial tree must reproduce the flat
     phase's expansions bit for bit — the per-coefficient grids make the
     merge order irrelevant. *)
  let expansions route =
    let nnodes = 4 in
    let tree, params = upward_setup ~nparticles:500 in
    let global =
      Dpa_fmm.Fmm_global.distribute_empty ~p:params.Dpa_fmm.Fmm_force.p tree
        ~nnodes
    in
    let engine = Engine.create (machine nnodes) in
    ignore
      (Dpa_fmm.Fmm_upward.run ?route ~engine ~global ~params
         (Dpa_baselines.Variant.dpa ()));
    Array.map
      (fun p ->
        if Gptr.is_nil p then [||]
        else
          Array.copy
            (Heap.deref global.Dpa_fmm.Fmm_global.heaps p).Obj_repr.floats)
      global.Dpa_fmm.Fmm_global.mp_ptrs
  in
  let flat = expansions None in
  let routed = expansions (Some Dpa.Config.All_dsts) in
  Alcotest.(check bool) "routed M2M expansions bit-identical" true
    (flat = routed)

let test_upward_combining_saves_messages () =
  let run variant =
    let _, _, (r : Dpa_fmm.Fmm_upward.result), _ = run_upward variant in
    r
  in
  let dpa = run (Dpa_baselines.Variant.dpa ()) in
  let caching = run (Dpa_baselines.Variant.Caching { capacity = 64 }) in
  (match dpa.Dpa_fmm.Fmm_upward.dpa_stats with
  | Some s ->
    Alcotest.(check bool) "remote updates exist" true
      (s.Dpa.Dpa_stats.update_msgs > 0)
  | None -> Alcotest.fail "expected dpa stats");
  Alcotest.(check bool) "combining+aggregation beats singles" true
    (dpa.Dpa_fmm.Fmm_upward.breakdown.Breakdown.msgs
    < caching.Dpa_fmm.Fmm_upward.breakdown.Breakdown.msgs)

let suites =
  [
    ( "core.update_buffer",
      [
        Alcotest.test_case "combines" `Quick test_update_buffer_combines;
        Alcotest.test_case "no-combine keeps all" `Quick
          test_update_buffer_no_combine;
        Alcotest.test_case "eager flush" `Quick test_update_buffer_eager_flush;
        Alcotest.test_case "hold and flush_if" `Quick
          test_update_buffer_hold_and_flush_if;
        Alcotest.test_case "held bucket survives key collisions" `Quick
          test_update_buffer_held_collision;
        Alcotest.test_case "clear wipes without flushing" `Quick
          test_update_buffer_clear;
        Alcotest.test_case "merges a flushed batch" `Quick
          test_update_buffer_merges_flushed_batch;
        QCheck_alcotest.to_alcotest qcheck_update_buffer_sum_preserved;
        QCheck_alcotest.to_alcotest qcheck_update_buffer_model;
        Alcotest.test_case "packed keys" `Quick test_update_buffer_keys;
      ] );
    ( "core.routed_aggregation",
      [
        Alcotest.test_case "bit-identical, fewer messages" `Quick
          test_routed_bit_identical_and_fewer_messages;
        Alcotest.test_case "exact and replayable under faults" `Quick
          test_routed_under_faults_exact_and_replayable;
        Alcotest.test_case "survives crash plans" `Quick
          test_routed_survives_crash_plans;
        Alcotest.test_case "config validation" `Quick
          test_route_config_validation;
      ] );
    ( "core.accumulate",
      [
        Alcotest.test_case "dpa" `Quick test_accumulate_dpa;
        Alcotest.test_case "dpa no combine" `Quick test_accumulate_dpa_no_combine;
        Alcotest.test_case "caching" `Quick test_accumulate_caching;
        Alcotest.test_case "blocking" `Quick test_accumulate_blocking;
        Alcotest.test_case "combining reduces messages" `Quick
          test_dpa_combining_reduces_messages;
      ] );
    ( "fmm.upward",
      [
        Alcotest.test_case "dpa matches sequential" `Quick
          test_upward_dpa_matches_seq;
        Alcotest.test_case "caching matches sequential" `Quick
          test_upward_caching_matches_seq;
        Alcotest.test_case "upward then force pipeline" `Quick
          test_upward_then_force_pipeline;
        Alcotest.test_case "combining saves messages" `Quick
          test_upward_combining_saves_messages;
        Alcotest.test_case "routed upward bit-identical" `Quick
          test_upward_routed_bit_identical;
      ] );
  ]
