(* Behavioural tests of the DPA scheduler: the properties the paper's
   optimizations rest on, observed through the simulator. *)

open Dpa_sim
open Dpa_heap

let machine ?poll_quantum_ns nodes =
  match poll_quantum_ns with
  | None -> Machine.t3d ~nodes
  | Some q -> Machine.make ~poll_quantum_ns:q ~nodes ()

(* Tiling: all threads waiting on one pointer run consecutively when its
   reply arrives. *)
let test_waiters_run_consecutively () =
  let nnodes = 2 in
  let heaps = Heap.cluster ~nnodes in
  let a = Heap.alloc heaps.(1) ~floats:[| 1. |] ~ptrs:[||] in
  let b = Heap.alloc heaps.(1) ~floats:[| 2. |] ~ptrs:[||] in
  let engine = Engine.create (machine nnodes) in
  let order = ref [] in
  let items node =
    if node <> 0 then [||]
    else
      (* Interleave reads of a and b; same-pointer threads must still be
         woken back-to-back. *)
      Array.init 6 (fun i ->
          fun ctx ->
            let p, tag = if i land 1 = 0 then (a, "a") else (b, "b") in
            Dpa.Runtime.read ctx p (fun _ctx _view ->
                order := tag :: !order))
  in
  ignore
    (Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items);
  let order = List.rev !order in
  (* Six continuations; the three 'a's are adjacent and the three 'b's are
     adjacent (both pointers travel in one reply; delivery wakes each
     pointer's waiters as one block). *)
  Alcotest.(check int) "all ran" 6 (List.length order);
  let rec runs = function
    | [] -> 0
    | [ _ ] -> 1
    | x :: (y :: _ as rest) -> (if x = y then 0 else 1) + runs rest
  in
  Alcotest.(check int) "two blocks" 2 (runs order)

(* Pipelining: with more work than latency, the network time hides — idle
   stays near zero; with a single dependent chain it cannot. *)
let test_overlap_hides_latency () =
  let nnodes = 2 in
  let heaps = Heap.cluster ~nnodes in
  let ptrs =
    Array.init 64 (fun i ->
        Heap.alloc heaps.(1) ~floats:[| float_of_int i |] ~ptrs:[||])
  in
  let engine = Engine.create (machine nnodes) in
  let items node =
    if node <> 0 then [||]
    else
      Array.map
        (fun p ->
          fun ctx ->
            Dpa.Runtime.read ctx p (fun ctx _ ->
                Dpa.Runtime.charge ctx 50_000))
        ptrs
  in
  ignore
    (Dpa.Runtime.run_phase ~engine ~heaps
       ~config:(Dpa.Config.dpa ~strip_size:64 ~agg_max:8 ())
       ~items);
  (* With 50 us of work per reply, communication overlaps computation: the
     *requester's* idle time must be a small fraction of its clock (the
     owner node has no work of its own and legitimately idles). *)
  let requester = Engine.node engine 0 in
  let idle_frac =
    float_of_int requester.Node.idle_ns /. float_of_int requester.Node.clock
  in
  Alcotest.(check bool)
    (Printf.sprintf "requester idle fraction %.3f < 0.1" idle_frac)
    true (idle_frac < 0.1)

(* The poll quantum bounds how long a node computing locally can delay an
   incoming request. *)
let test_poll_quantum_bounds_service_delay () =
  let nnodes = 2 in
  let run quantum =
    let heaps = Heap.cluster ~nnodes in
    (* Node 1 has lots of local work; node 0 needs one object from node 1. *)
    let local1 =
      Array.init 64 (fun i ->
          Heap.alloc heaps.(1) ~floats:[| float_of_int i |] ~ptrs:[||])
    in
    let remote = Heap.alloc heaps.(1) ~floats:[| 9. |] ~ptrs:[||] in
    let engine = Engine.create (machine ~poll_quantum_ns:quantum nnodes) in
    let got_at = ref 0 in
    let items node =
      if node = 1 then
        Array.map
          (fun p ->
            fun ctx ->
              Dpa.Runtime.read ctx p (fun ctx _ ->
                  Dpa.Runtime.charge ctx 100_000))
          local1
      else
        [|
          (fun ctx ->
            Dpa.Runtime.read ctx remote (fun ctx _ ->
                got_at := (Engine.node engine (Dpa.Runtime.node_id ctx)).Node.clock));
        |]
    in
    ignore
      (Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items);
    !got_at
  in
  let fine = run 20_000 and coarse = run 2_000_000 in
  Alcotest.(check bool)
    (Printf.sprintf "finer polling serves sooner (%d < %d)" fine coarse)
    true (fine < coarse)

(* Owner-side request service consumes owner CPU (comm overhead). *)
let test_service_steals_owner_cpu () =
  let nnodes = 2 in
  let heaps = Heap.cluster ~nnodes in
  let ptrs =
    Array.init 32 (fun i ->
        Heap.alloc heaps.(1) ~floats:[| float_of_int i |] ~ptrs:[||])
  in
  let engine = Engine.create (machine nnodes) in
  let items node =
    if node <> 0 then [||]
    else
      Array.map (fun p -> fun ctx -> Dpa.Runtime.read ctx p (fun _ _ -> ())) ptrs
  in
  ignore (Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items);
  let owner = Engine.node engine 1 in
  Alcotest.(check bool) "owner charged comm time" true (owner.Node.comm_ns > 0);
  Alcotest.(check int) "owner did no local work" 0 owner.Node.local_ns

(* Reading a heap slot that does not exist must surface, not hang. *)
let test_dangling_pointer_fails () =
  let nnodes = 1 in
  let heaps = Heap.cluster ~nnodes in
  let engine = Engine.create (machine nnodes) in
  let dangling = Gptr.make ~node:0 ~slot:99 in
  let raised = ref false in
  (try
     ignore
       (Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ())
          ~items:(fun _ ->
            [| (fun ctx -> Dpa.Runtime.read ctx dangling (fun _ _ -> ())) |]))
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "dangling read raises" true !raised

(* The caching baseline resolves reads in depth-first program order. *)
let test_caching_dfs_order () =
  let nnodes = 1 in
  let heaps = Heap.cluster ~nnodes in
  let leaf v = Heap.alloc heaps.(0) ~floats:[| v |] ~ptrs:[||] in
  let l1 = leaf 1. and l2 = leaf 2. in
  let parent = Heap.alloc heaps.(0) ~floats:[| 0. |] ~ptrs:[| l1; l2 |] in
  let engine = Engine.create (machine nnodes) in
  let order = ref [] in
  let items _ =
    [|
      (fun ctx ->
        Dpa_baselines.Caching.read ctx parent (fun ctx view ->
            let heaps = Dpa_baselines.Caching.heaps ctx in
            for i = 0 to Heap.view_nptrs heaps view - 1 do
              let child = Heap.view_ptr heaps view i in
              Dpa_baselines.Caching.read ctx child (fun ctx v ->
                  order :=
                    Heap.view_float (Dpa_baselines.Caching.heaps ctx) v 0
                    :: !order)
            done));
    |]
  in
  ignore
    (Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:0 ~hash:false
       ~items ());
  (* LIFO stack: children pushed 1 then 2, resolved 2 then 1. *)
  Alcotest.(check (list (float 0.))) "dfs order" [ 1.; 2. ] !order

(* Determinism of a full multi-node application phase. *)
let test_bh_phase_deterministic () =
  let run () =
    let r =
      Dpa_bh.Bh_run.simulate ~nnodes:4 ~nbodies:300 ~nsteps:1
        (Dpa_baselines.Variant.dpa ())
    in
    r.Dpa_bh.Bh_run.total.Breakdown.elapsed_ns
  in
  Alcotest.(check int) "identical elapsed" (run ()) (run ())

(* Strip size one serializes items: max outstanding <= reads per item. *)
let test_strip_one_limits_outstanding () =
  let nnodes = 2 in
  let heaps = Heap.cluster ~nnodes in
  let ptrs =
    Array.init 16 (fun i ->
        Heap.alloc heaps.(1) ~floats:[| float_of_int i |] ~ptrs:[||])
  in
  let engine = Engine.create (machine nnodes) in
  let items node =
    if node <> 0 then [||]
    else
      Array.init 8 (fun i ->
          fun ctx ->
            Dpa.Runtime.read ctx ptrs.(2 * i) (fun _ _ -> ());
            Dpa.Runtime.read ctx ptrs.((2 * i) + 1) (fun _ _ -> ()))
  in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:1 ())
      ~items
  in
  Alcotest.(check bool) "outstanding bounded by item" true
    (stats.Dpa.Dpa_stats.max_outstanding <= 2)

let suites =
  [
    ( "core.behavior",
      [
        Alcotest.test_case "waiters run consecutively (tiling)" `Quick
          test_waiters_run_consecutively;
        Alcotest.test_case "overlap hides latency (pipelining)" `Quick
          test_overlap_hides_latency;
        Alcotest.test_case "poll quantum bounds service delay" `Quick
          test_poll_quantum_bounds_service_delay;
        Alcotest.test_case "service steals owner cpu" `Quick
          test_service_steals_owner_cpu;
        Alcotest.test_case "dangling pointer fails" `Quick
          test_dangling_pointer_fails;
        Alcotest.test_case "caching resolves depth-first" `Quick
          test_caching_dfs_order;
        Alcotest.test_case "bh phase deterministic" `Quick
          test_bh_phase_deterministic;
        Alcotest.test_case "strip one limits outstanding" `Quick
          test_strip_one_limits_outstanding;
      ] );
  ]
