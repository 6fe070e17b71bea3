open Dpa_sim

let machine nodes = Machine.t3d ~nodes

let run_dpa ?(nnodes = 4) ?(nobjs = 32) ?(nitems = 20) ?(reads = 8)
    ?(config = Dpa.Config.dpa ()) () =
  let w = Workload.make ~nnodes ~nobjs in
  let engine = Engine.create (machine nnodes) in
  let sums = Array.make nnodes 0. in
  let items =
    Workload.items (module Dpa.Runtime) w ~nitems ~reads ~work_ns:200 sums
  in
  let breakdown, stats =
    Dpa.Runtime.run_phase ~engine ~heaps:w.Workload.heaps ~config ~items
  in
  (w, sums, breakdown, stats)

let check_sums w sums ~nitems ~reads =
  Array.iteri
    (fun node got ->
      let want = Workload.expected_sum w ~node ~nitems ~reads in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "node %d sum" node) want got)
    sums

let test_dpa_correct_sums () =
  let w, sums, _, _ = run_dpa () in
  check_sums w sums ~nitems:20 ~reads:8

let test_dpa_correct_sums_one_node () =
  let w, sums, _, stats = run_dpa ~nnodes:1 () in
  check_sums w sums ~nitems:20 ~reads:8;
  Alcotest.(check int) "all reads local" (20 * 8)
    stats.Dpa.Dpa_stats.inline_local;
  Alcotest.(check int) "no messages" 0 stats.Dpa.Dpa_stats.request_msgs

let test_dpa_read_accounting () =
  let nitems = 20 and reads = 8 and nnodes = 4 in
  let _, _, _, stats = run_dpa ~nnodes ~nitems ~reads () in
  Alcotest.(check int) "every read accounted" (nnodes * nitems * reads)
    (Dpa.Dpa_stats.total_reads stats)

let test_dpa_strip_count () =
  let _, _, _, stats =
    run_dpa ~nitems:20 ~config:(Dpa.Config.dpa ~strip_size:7 ()) ()
  in
  (* ceil(20/7) = 3 strips per node, 4 nodes *)
  Alcotest.(check int) "strips" 12 stats.Dpa.Dpa_stats.strips

let test_dpa_reuse_reduces_fetches () =
  let _, _, _, full = run_dpa ~config:(Dpa.Config.dpa ~strip_size:50 ()) () in
  let _, _, _, noreuse =
    run_dpa ~config:(Dpa.Config.pipeline_aggregate ~strip_size:50 ()) ()
  in
  Alcotest.(check bool) "reuse fetches fewer objects" true
    (full.Dpa.Dpa_stats.spawns < noreuse.Dpa.Dpa_stats.spawns);
  Alcotest.(check bool) "reuse has hits" true
    (full.Dpa.Dpa_stats.align_hits + full.Dpa.Dpa_stats.merge_hits > 0);
  Alcotest.(check int) "no reuse has no hits" 0
    (noreuse.Dpa.Dpa_stats.align_hits + noreuse.Dpa.Dpa_stats.merge_hits)

let test_dpa_aggregation_reduces_messages () =
  let _, _, _, agg =
    run_dpa ~config:(Dpa.Config.pipeline_aggregate ~agg_max:64 ()) ()
  in
  let _, _, _, noagg = run_dpa ~config:(Dpa.Config.pipeline_only ()) () in
  Alcotest.(check bool) "fewer messages with aggregation" true
    (agg.Dpa.Dpa_stats.request_msgs < noagg.Dpa.Dpa_stats.request_msgs);
  Alcotest.(check int) "pipeline-only batches are singletons" 1
    noagg.Dpa.Dpa_stats.max_batch

let test_dpa_outstanding_bounded_by_strip () =
  let strip = 5 and reads = 8 in
  let _, _, _, stats =
    run_dpa ~config:(Dpa.Config.dpa ~strip_size:strip ()) ~reads ()
  in
  Alcotest.(check bool) "outstanding <= strip * reads" true
    (stats.Dpa.Dpa_stats.max_outstanding <= strip * reads)

let test_dpa_deterministic () =
  let _, _, b1, _ = run_dpa () in
  let _, _, b2, _ = run_dpa () in
  Alcotest.(check int) "same elapsed" b1.Breakdown.elapsed_ns
    b2.Breakdown.elapsed_ns;
  Alcotest.(check int) "same msgs" b1.Breakdown.msgs b2.Breakdown.msgs

let test_dpa_strip_size_one_works () =
  let w, sums, _, _ = run_dpa ~config:(Dpa.Config.dpa ~strip_size:1 ()) () in
  check_sums w sums ~nitems:20 ~reads:8

let test_dpa_empty_items () =
  let w = Workload.make ~nnodes:3 ~nobjs:4 in
  let engine = Engine.create (machine 3) in
  let breakdown, stats =
    Dpa.Runtime.run_phase ~engine ~heaps:w.Workload.heaps
      ~config:(Dpa.Config.dpa ())
      ~items:(fun _ -> [||])
  in
  Alcotest.(check int) "no elapsed" 0 breakdown.Breakdown.elapsed_ns;
  Alcotest.(check int) "no reads" 0 (Dpa.Dpa_stats.total_reads stats)

let test_dpa_rejects_nil () =
  let w = Workload.make ~nnodes:2 ~nobjs:2 in
  let engine = Engine.create (machine 2) in
  let raised = ref false in
  (try
     ignore
       (Dpa.Runtime.run_phase ~engine ~heaps:w.Workload.heaps
          ~config:(Dpa.Config.dpa ())
          ~items:(fun node ->
            if node = 0 then
              [| (fun ctx -> Dpa.Runtime.read ctx Dpa_heap.Gptr.nil (fun _ _ -> ())) |]
            else [||]))
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "nil read rejected" true !raised

(* A read's use of M as [Runtime.read] makes it while D misses: merge
   onto an in-flight fetch, else issue a fresh token; [-1] for a merge. *)
let register m ~reuse p k =
  if reuse && Dpa.Pointer_map.merge m p k then -1
  else Dpa.Pointer_map.issue m ~reuse p k

let test_pointer_map_reuse_merges () =
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:0 in
  if register m ~reuse:true p "a" < 0 then
    Alcotest.fail "first should request";
  if register m ~reuse:true p "b" >= 0 then
    Alcotest.fail "second should merge";
  Alcotest.(check int) "one token" 1 (Dpa.Pointer_map.outstanding m);
  Alcotest.(check int) "two waiters" 2 (Dpa.Pointer_map.waiters m)

(* Pop one thread off a ready ring, as the scheduler does: a single
   entry whole, a chain entry one waiter at a time through M, its cursor
   advanced in place. *)
let pop_thread m ring =
  let p = Dpa.Ready_ring.head_ptr ring in
  let cell = Dpa.Ready_ring.head_cell ring in
  if cell < 0 then begin
    let k = Dpa.Ready_ring.head_k ring in
    Dpa.Ready_ring.drop ring;
    (p, k)
  end
  else begin
    let k = Dpa.Pointer_map.waiter m cell in
    let next = Dpa.Pointer_map.pop_waiter m cell in
    if next < 0 then Dpa.Ready_ring.drop ring
    else Dpa.Ready_ring.set_head_cell ring next;
    (p, k)
  end

(* Pop every thread of a ready ring: the threads a take woke, in order. *)
let drain_ring m ring =
  let rec go acc =
    if Dpa.Ready_ring.is_empty ring then List.rev acc
    else go (pop_thread m ring :: acc)
  in
  go []

let request m p k =
  let token = register m ~reuse:true p k in
  if token < 0 then Alcotest.fail "unexpected merge";
  token

let test_pointer_map_take_order () =
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:"" in
  let ring = Dpa.Ready_ring.create ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:1 in
  let token = request m p "a" in
  ignore (register m ~reuse:true p "b");
  ignore (register m ~reuse:true p "c");
  let ptr = Dpa.Pointer_map.take m token ring in
  Alcotest.(check bool) "ptr matches" true (Dpa_heap.Gptr.equal p ptr);
  Alcotest.(check int) "one ring entry per token" 1
    (Dpa.Ready_ring.length ring);
  let woken = drain_ring m ring in
  Alcotest.(check (list string)) "registration order" [ "a"; "b"; "c" ]
    (List.map snd woken);
  Alcotest.(check bool) "woken on the pointer" true
    (List.for_all (fun (q, _) -> Dpa_heap.Gptr.equal p q) woken);
  Alcotest.(check bool) "empty after take" true (Dpa.Pointer_map.is_empty m);
  (* A new registration after take must issue a fresh request. *)
  if register m ~reuse:true p "d" < 0 then
    Alcotest.fail "should re-request after take"

let test_pointer_map_no_reuse_never_merges () =
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:() in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:2 in
  for _ = 1 to 5 do
    if register m ~reuse:false p () < 0 then
      Alcotest.fail "must not merge without reuse"
  done;
  Alcotest.(check int) "five tokens" 5 (Dpa.Pointer_map.outstanding m)

(* Fault-free, a reply for a token M does not hold is a protocol error:
   the failure names the node and the token. The idempotent form yields
   nil and wakes nothing. *)
let test_pointer_map_unknown_token () =
  let m = Dpa.Pointer_map.create ~node:3 ~dummy:"" in
  let ring = Dpa.Ready_ring.create ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:1 ~slot:4 in
  let token = request m p "a" in
  ignore (Dpa.Pointer_map.take m token ring);
  Alcotest.check_raises "stale token names node and token"
    (Failure
       (Printf.sprintf
          "Pointer_map.take: node 3 got a reply for token %d, which is not \
           outstanding (never issued or already consumed)"
          token))
    (fun () -> ignore (Dpa.Pointer_map.take m token ring));
  Alcotest.(check bool) "idempotent take of a stale token" true
    (Dpa_heap.Gptr.is_nil (Dpa.Pointer_map.take_or_nil m token ring));
  Alcotest.(check int) "one wake only" 1 (Dpa.Ready_ring.length ring)

let qcheck_pointer_map_one_request_per_pointer =
  QCheck.Test.make ~name:"M has at most one outstanding token per pointer"
    ~count:200
    QCheck.(small_list (pair (int_range 0 3) (int_range 0 5)))
    (fun regs ->
      let m = Dpa.Pointer_map.create ~node:0 ~dummy:() in
      let requests = Hashtbl.create 16 in
      List.iter
        (fun (node, slot) ->
          let p = Dpa_heap.Gptr.make ~node ~slot in
          if register m ~reuse:true p () >= 0 then
            if Hashtbl.mem requests (node, slot) then
              failwith "duplicate request"
            else Hashtbl.replace requests (node, slot) ()
          else if not (Hashtbl.mem requests (node, slot)) then
            failwith "merged without request")
        regs;
      true)

(* The list-and-Hashtbl M the flat map replaced, kept as the reference
   model: tokens, merge decisions, FIFO wake order and counts must agree
   operation for operation. *)
module Model = struct
  open Dpa_heap

  type 'k slot = { ptr : Gptr.t; mutable ks : 'k list (* reversed *); mutable count : int }

  type 'k t = {
    tokens : (int, 'k slot) Hashtbl.t;
    by_ptr : int Gptr.Tbl.t;
    mutable next_token : int;
    mutable waiters : int;
  }

  let create () =
    { tokens = Hashtbl.create 64; by_ptr = Gptr.Tbl.create 64; next_token = 0; waiters = 0 }

  let fresh t ptr k =
    let token = t.next_token in
    t.next_token <- token + 1;
    Hashtbl.replace t.tokens token { ptr; ks = [ k ]; count = 1 };
    token

  let register t ~reuse ptr k =
    t.waiters <- t.waiters + 1;
    if reuse then
      match Gptr.Tbl.find_opt t.by_ptr ptr with
      | Some token ->
        let slot = Hashtbl.find t.tokens token in
        slot.ks <- k :: slot.ks;
        slot.count <- slot.count + 1;
        -1
      | None ->
        let token = fresh t ptr k in
        Gptr.Tbl.replace t.by_ptr ptr token;
        token
    else fresh t ptr k

  let take_opt t token =
    match Hashtbl.find_opt t.tokens token with
    | None -> None
    | Some slot ->
      Hashtbl.remove t.tokens token;
      (match Gptr.Tbl.find_opt t.by_ptr slot.ptr with
      | Some tok when tok = token -> Gptr.Tbl.remove t.by_ptr slot.ptr
      | Some _ | None -> ());
      t.waiters <- t.waiters - slot.count;
      Some (slot.ptr, List.rev slot.ks)

  let token_ptr t token =
    match Hashtbl.find_opt t.tokens token with
    | Some slot -> slot.ptr
    | None -> Gptr.nil

  let outstanding_list t =
    List.sort compare (Hashtbl.fold (fun tok slot acc -> (tok, slot.ptr) :: acc) t.tokens [])
end

type pm_op = Register of int * bool | Take of int | Find of int | Fold

let pm_op_print = function
  | Register (p, r) -> Printf.sprintf "Register(%d,%b)" p r
  | Take t -> Printf.sprintf "Take %d" t
  | Find t -> Printf.sprintf "Find %d" t
  | Fold -> "Fold"

let pm_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun p r -> Register (p, r)) (int_range 0 7) bool);
        (4, map (fun t -> Take t) (int_range 0 40));
        (2, map (fun t -> Find t) (int_range 0 40));
        (1, return Fold);
      ])

(* [mode]: 0 = every registration reuses, 1 = none does, 2 = each
   registration's own flag decides (mixed). *)
let qcheck_pointer_map_model =
  QCheck.Test.make ~name:"flat M matches the list-based reference model"
    ~count:500
    QCheck.(
      pair (int_range 0 2)
        (make
           ~print:(fun l -> String.concat "; " (List.map pm_op_print l))
           Gen.(list_size (int_range 0 120) pm_op_gen)))
    (fun (mode, ops) ->
      let m = Dpa.Pointer_map.create ~node:0 ~dummy:(-1) in
      let model = Model.create () in
      let ring = Dpa.Ready_ring.create ~dummy:(-1) in
      let next_k = ref 0 in
      let ptr_of p = Dpa_heap.Gptr.make ~node:(p mod 3) ~slot:(p / 3) in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Register (p, r) ->
              let reuse = match mode with 0 -> true | 1 -> false | _ -> r in
              let k = !next_k in
              incr next_k;
              register m ~reuse (ptr_of p) k
              = Model.register model ~reuse (ptr_of p) k
            | Take token -> (
              let got = Dpa.Pointer_map.take_or_nil m token ring in
              let woken = drain_ring m ring in
              match Model.take_opt model token with
              | None -> Dpa_heap.Gptr.is_nil got && woken = []
              | Some (ptr, ks) ->
                Dpa_heap.Gptr.equal got ptr
                && List.map snd woken = ks
                && List.for_all (fun (q, _) -> Dpa_heap.Gptr.equal q ptr) woken)
            | Find token ->
              Dpa_heap.Gptr.equal
                (Dpa.Pointer_map.token_ptr m token)
                (Model.token_ptr model token)
            | Fold ->
              List.sort compare
                (Dpa.Pointer_map.fold_outstanding m
                   (fun tok p acc -> (tok, p) :: acc)
                   [])
              = Model.outstanding_list model
          in
          agree
          && Dpa.Pointer_map.waiters m = model.Model.waiters
          && Dpa.Pointer_map.outstanding m = Hashtbl.length model.Model.tokens
          && Dpa.Pointer_map.is_empty m = (Hashtbl.length model.Model.tokens = 0))
        ops)

(* The timer slab against a list model. Driver events at random times
   arm timers (on the node clock, like the runtimes) or crash the node;
   some timers re-arm from their handler with the slab's backoff. Each
   handler call must be the earliest live timer by (deadline, arm order),
   see exactly the columns its arm wrote, and leave [armed] equal to the
   model's count; timers of an earlier incarnation must never reach the
   handler. Afterwards every live timer has popped, the slab is empty,
   and its capacity stayed within twice its peak occupancy, so freed
   slots were reused and slots armed while it grew were kept. *)
type ts_op = Arm of int * int * int * int * bool | Crash of int

let ts_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 12,
          map
            (fun (t, kind, rto, len, rearm) -> Arm (t, kind, rto, len, rearm))
            (tup5 (int_range 0 400) (int_range 0 3) (int_range 0 60)
               (int_range 0 4) bool) );
        (1, map (fun t -> Crash t) (int_range 0 400));
      ])

let ts_op_print = function
  | Arm (t, k, rto, len, r) ->
    Printf.sprintf "Arm(%d,%d,%d,%d,%b)" t k rto len r
  | Crash t -> Printf.sprintf "Crash %d" t

type ts_entry = {
  e_kind : Dpa.Timer_slab.kind;
  e_dst : int;
  e_rto : int;
  e_deadline : int;
  e_msg : int array;
  e_inc : int;
  e_seq : int;
  e_rearm : bool;
}

let qcheck_timer_slab_model =
  QCheck.Test.make ~name:"timer slab pops what each arm wrote" ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map ts_op_print l))
       QCheck.Gen.(list_size (int_range 0 150) ts_op_gen))
    (fun ops ->
      let engine = Engine.create (machine 1) in
      let node = Engine.node engine 0 in
      let slab = Dpa.Timer_slab.create engine node in
      let model = Hashtbl.create 64 in
      let next_id = ref 0 and seq = ref 0 and peak = ref 0 and ok = ref true in
      let kinds = Dpa.Timer_slab.[| Request; Update; Custody; Fetch |] in
      let arm ?at kind ~rto ~len ~rearm =
        let id = !next_id in
        incr next_id;
        let msg = Array.init len (fun j -> (100 * id) + j) in
        let deadline =
          match at with Some d -> d | None -> node.Node.clock + rto
        in
        Dpa.Timer_slab.arm slab ?at kind ~id ~dst:(id mod 7) ~rto msg;
        Hashtbl.replace model id
          {
            e_kind = kind;
            e_dst = id mod 7;
            e_rto = rto;
            e_deadline = deadline;
            e_msg = msg;
            e_inc = node.Node.incarnation;
            e_seq = !seq;
            e_rearm = rearm;
          };
        incr seq;
        let armed = Dpa.Timer_slab.armed slab in
        peak := max !peak armed;
        (* Fenced timers leave the slab unseen, so only bounds hold here. *)
        let live =
          Hashtbl.fold
            (fun _ e n -> if e.e_inc = node.Node.incarnation then n + 1 else n)
            model 0
        in
        if armed > Hashtbl.length model || armed < live then ok := false
      in
      let key e = (e.e_deadline, e.e_seq) in
      Dpa.Timer_slab.set_handler slab (fun kind ~id ~dst ~rto ~deadline msg ->
          match Hashtbl.find_opt model id with
          | None -> ok := false
          | Some e ->
            (* Fenced timers ahead of this one popped silently. *)
            Hashtbl.filter_map_inplace
              (fun _ f ->
                if f.e_inc <> node.Node.incarnation && key f < key e then None
                else Some f)
              model;
            Hashtbl.remove model id;
            if
              e.e_inc <> node.Node.incarnation
              || Hashtbl.fold (fun _ f acc -> acc || key f < key e) model false
              || kind <> e.e_kind || dst <> e.e_dst || rto <> e.e_rto
              || deadline <> e.e_deadline || msg <> e.e_msg
              || Dpa.Timer_slab.armed slab <> Hashtbl.length model
            then ok := false;
            if e.e_rearm then begin
              let rto = Dpa.Timer_slab.backoff ~rto:(max 1 rto) ~cap:50 in
              arm ~at:(deadline + rto) kind ~rto ~len:(Array.length msg)
                ~rearm:false
            end);
      List.iter
        (function
          | Arm (t, k, rto, len, rearm) ->
            Engine.post engine ~time:t ~node:0 (fun () ->
                arm kinds.(k) ~rto ~len ~rearm)
          | Crash t ->
            Engine.post engine ~time:t ~node:0 (fun () ->
                node.Node.incarnation <- node.Node.incarnation + 1))
        ops;
      Engine.run engine;
      !ok
      && Hashtbl.fold
           (fun _ e acc -> acc && e.e_inc <> node.Node.incarnation)
           model true
      && Dpa.Timer_slab.armed slab = 0
      && Dpa.Timer_slab.capacity slab <= max 16 (2 * !peak))

(* A request timer covers its whole message. At the deadline the runtime
   walks the message the slot kept, in order, and re-issues the tokens M
   still holds: here the second and fourth of four, answered before the
   deadline, are skipped. *)
let test_message_timer_walk () =
  let engine = Engine.create (machine 2) in
  let node = Engine.node engine 0 in
  let slab = Dpa.Timer_slab.create engine node in
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:(-1) in
  let ring = Dpa.Ready_ring.create ~dummy:(-1) in
  let msg = Array.make 8 0 in
  for i = 0 to 3 do
    let ptr = Dpa_heap.Gptr.make ~node:1 ~slot:(10 + i) in
    msg.(2 * i) <- register m ~reuse:true ptr i;
    msg.((2 * i) + 1) <- 10 + i
  done;
  let reissued = ref [] in
  Dpa.Timer_slab.set_handler slab
    (fun kind ~id:_ ~dst:_ ~rto:_ ~deadline:_ msg ->
      assert (kind = Dpa.Timer_slab.Request);
      for i = 0 to (Array.length msg / 2) - 1 do
        let ptr = Dpa.Pointer_map.token_ptr m msg.(2 * i) in
        if not (Dpa_heap.Gptr.is_nil ptr) then
          reissued := Dpa_heap.Gptr.slot ptr :: !reissued
      done);
  Dpa.Timer_slab.arm slab Dpa.Timer_slab.Request ~id:0 ~dst:1 ~rto:1000 msg;
  Engine.post engine ~time:500 ~node:0 (fun () ->
      ignore (Dpa.Pointer_map.take m msg.(2) ring);
      ignore (Dpa.Pointer_map.take m msg.(6) ring));
  Engine.run engine;
  Alcotest.(check (list int)) "outstanding tokens, in message order" [ 10; 12 ]
    (List.rev !reissued)

(* A crash between two dispatches of a chain: [reclaim] moves the
   chain's undispatched remote waiters back into M in registration order,
   remote single entries after them in ring order, and leaves local
   entries ready. Threads in the ring plus waiters in M is the runtime's
   [pending], which the crash must not change. *)
let test_pointer_map_reclaim_mid_chain () =
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:"" in
  let ring = Dpa.Ready_ring.create ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:1 ~slot:0
  and q = Dpa_heap.Gptr.make ~node:2 ~slot:0
  and r = Dpa_heap.Gptr.make ~node:1 ~slot:5
  and l = Dpa_heap.Gptr.make ~node:0 ~slot:3 in
  let tp = request m p "a" in
  List.iter (fun k -> ignore (register m ~reuse:true p k))
    [ "b"; "c" ];
  let tq = request m q "x" in
  ignore (Dpa.Pointer_map.take m tp ring);
  Alcotest.(check string) "first waiter dispatched" "a"
    (snd (pop_thread m ring));
  Dpa.Ready_ring.push ring l "L";
  ignore (Dpa.Pointer_map.take m tq ring);
  Dpa.Ready_ring.push ring r "r";
  (* Ready: b and c (p's chain, cut after a), L, x (q's chain), r. *)
  let pending = Dpa.Pointer_map.waiters m + 5 in
  Dpa.Pointer_map.reclaim m ~reuse:true ring;
  Alcotest.(check int) "local entry stays ready" 1 (Dpa.Ready_ring.length ring);
  Alcotest.(check int) "three fetches re-registered" 3
    (Dpa.Pointer_map.outstanding m);
  Alcotest.(check int) "pending unchanged" pending
    (Dpa.Pointer_map.waiters m + 1);
  let outstanding =
    List.sort compare
      (Dpa.Pointer_map.fold_outstanding m (fun tok p acc -> (tok, p) :: acc) [])
  in
  Alcotest.(check (list int)) "tokens in ring order" [ 2; 3; 4 ]
    (List.map fst outstanding);
  Alcotest.(check bool) "p, then q, then r" true
    (List.for_all2
       (fun (_, got) want -> Dpa_heap.Gptr.equal got want)
       outstanding [ p; q; r ]);
  let woken tok =
    ignore (Dpa.Pointer_map.take m tok ring);
    List.map snd (drain_ring m ring)
  in
  Alcotest.(check (list string)) "local entry first" [ "L" ]
    (List.map snd (drain_ring m ring));
  Alcotest.(check (list string)) "rest of p's chain, in order" [ "b"; "c" ]
    (woken 2);
  Alcotest.(check (list string)) "q's chain" [ "x" ] (woken 3);
  Alcotest.(check (list string)) "remote single entry" [ "r" ] (woken 4);
  Alcotest.(check int) "nothing left" 0 (Dpa.Pointer_map.waiters m)

(* Vacated waiter cells and ring slots keep the continuation they last
   held (no write barrier to clear them). [stale_map] returns a map whose
   first [n] cells, and [stale_ring] a ring whose every slot, still hold
   the continuation "stale" of a thread long dispatched, so every later
   registration or push lands on a stale cell or slot. *)
let stale_map n =
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:"" in
  let ring = Dpa.Ready_ring.create ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:1 ~slot:99 in
  let token = request m p "stale" in
  for _ = 2 to n do
    ignore (register m ~reuse:true p "stale")
  done;
  ignore (Dpa.Pointer_map.take m token ring);
  ignore (drain_ring m ring);
  m

let stale_ring m =
  let ring = Dpa.Ready_ring.create ~dummy:"" in
  let l = Dpa_heap.Gptr.make ~node:0 ~slot:99 in
  (* 64 pushes and pops go once round the ring's initial 64 slots. *)
  for _ = 1 to 64 do
    Dpa.Ready_ring.push ring l "stale";
    ignore (pop_thread m ring)
  done;
  ring

(* A woken chain's cells are freed as it is dispatched; registrations
   that reuse them, even while the rest of the chain still waits at the
   ring head, must each dispatch their own continuation. *)
let test_recycled_waiter_cells () =
  let m = stale_map 4 in
  let ring = Dpa.Ready_ring.create ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:1 ~slot:0
  and q = Dpa_heap.Gptr.make ~node:2 ~slot:0 in
  let tp = request m p "a" in
  List.iter (fun k -> ignore (register m ~reuse:true p k)) [ "b"; "c" ];
  ignore (Dpa.Pointer_map.take m tp ring);
  Alcotest.(check string) "first of the chain" "a" (snd (pop_thread m ring));
  (* a's cell is free again: q's first waiter reuses it. *)
  let tq = request m q "d" in
  List.iter (fun k -> ignore (register m ~reuse:true q k)) [ "e"; "f"; "g" ];
  ignore (Dpa.Pointer_map.take m tq ring);
  Alcotest.(check (list string)) "rest of p's chain, then q's"
    [ "b"; "c"; "d"; "e"; "f"; "g" ]
    (List.map snd (drain_ring m ring));
  let tp = request m p "h" in
  ignore (register m ~reuse:true p "i");
  ignore (Dpa.Pointer_map.take m tp ring);
  Alcotest.(check (list string)) "cells reused a second time" [ "h"; "i" ]
    (List.map snd (drain_ring m ring));
  Alcotest.(check int) "nothing waits" 0 (Dpa.Pointer_map.waiters m)

(* A ring slot vacated by a single entry keeps its continuation; a chain
   entry pushed into it must dispatch its waiters, not that closure. The
   converse too: a single entry in a slot a chain vacated is single. *)
let test_recycled_ring_slots () =
  let m = stale_map 4 in
  let ring = stale_ring m in
  let p = Dpa_heap.Gptr.make ~node:1 ~slot:0
  and l = Dpa_heap.Gptr.make ~node:0 ~slot:1 in
  for i = 1 to 64 do
    let tp = request m p (Printf.sprintf "c%d" i) in
    ignore (register m ~reuse:true p (Printf.sprintf "c%d'" i));
    ignore (Dpa.Pointer_map.take m tp ring);
    Alcotest.(check (list string))
      (Printf.sprintf "chain %d in a slot a single entry left" i)
      [ Printf.sprintf "c%d" i; Printf.sprintf "c%d'" i ]
      (List.map snd (drain_ring m ring))
  done;
  for i = 1 to 64 do
    Dpa.Ready_ring.push ring l (Printf.sprintf "s%d" i);
    Alcotest.(check int) "single entry has no cursor" (-1)
      (Dpa.Ready_ring.head_cell ring);
    Alcotest.(check (list string))
      (Printf.sprintf "single %d in a slot a chain left" i)
      [ Printf.sprintf "s%d" i ]
      (List.map snd (drain_ring m ring))
  done

(* Crash recovery over stale cells and slots: [reclaim] reads each
   entry's kind from its cursor, so every re-registered thread keeps its
   own continuation, and a stale one is never re-registered. *)
let test_reclaim_recycled () =
  let m = stale_map 8 in
  let ring = stale_ring m in
  let p = Dpa_heap.Gptr.make ~node:1 ~slot:0
  and q = Dpa_heap.Gptr.make ~node:2 ~slot:0
  and r = Dpa_heap.Gptr.make ~node:1 ~slot:5
  and l = Dpa_heap.Gptr.make ~node:0 ~slot:3 in
  let tp = request m p "a" in
  List.iter (fun k -> ignore (register m ~reuse:true p k)) [ "b"; "c" ];
  let tq = request m q "x" in
  ignore (register m ~reuse:true q "y");
  ignore (Dpa.Pointer_map.take m tp ring);
  ignore (pop_thread m ring);
  Dpa.Ready_ring.push ring r "r";
  ignore (Dpa.Pointer_map.take m tq ring);
  Dpa.Ready_ring.push ring l "L";
  (* Ready: b and c (p's chain, cut after a), r, x and y (q's chain), L. *)
  Dpa.Pointer_map.reclaim m ~reuse:true ring;
  Alcotest.(check int) "three fetches re-registered" 3
    (Dpa.Pointer_map.outstanding m);
  Alcotest.(check (list string)) "local entry stays ready" [ "L" ]
    (List.map snd (drain_ring m ring));
  let woken =
    List.sort compare
      (Dpa.Pointer_map.fold_outstanding m (fun tok _ acc -> tok :: acc) [])
    |> List.map (fun tok ->
           ignore (Dpa.Pointer_map.take m tok ring);
           List.map snd (drain_ring m ring))
  in
  Alcotest.(check (list (list string))) "each thread's own continuation"
    [ [ "b"; "c" ]; [ "r" ]; [ "x"; "y" ] ]
    woken;
  Alcotest.(check int) "nothing left" 0 (Dpa.Pointer_map.waiters m)

(* A dispatch with no thread pending (a corrupted ring or map) fails at
   once, naming the node and the phase, instead of running on. *)
let test_dispatch_underflow () =
  Alcotest.check_raises "message"
    (Failure
       "Runtime.drain: node 3 dispatched a thread with none pending (phase \
        em3d-gather)")
    (fun () -> Dpa.Runtime.dispatch_underflow ~node:3 ~label:"em3d-gather")

(* Rebinding a present key must not count it twice. *)
let test_index_present_key () =
  let t = Dpa_util.Index.create ~log2:1 in
  for v = 1 to 100 do
    Dpa_util.Index.add t 5 v
  done;
  Alcotest.(check int) "one key" 1 (Dpa_util.Index.size t);
  Alcotest.(check int) "last binding" 100 (Dpa_util.Index.find t 5);
  Dpa_util.Index.add t 9 1;
  Dpa_util.Index.remove t 5;
  Alcotest.(check int) "size after remove" 1 (Dpa_util.Index.size t);
  Alcotest.(check bool) "removed" false (Dpa_util.Index.mem t 5);
  Alcotest.(check int) "other key kept" 1 (Dpa_util.Index.find t 9)

type ix_op = Ix_add of int * int | Ix_remove of int | Ix_clear

(* Keys that collide in a small table. [Index] hashes by the top bits of
   [k * 0x4F1BBCDCBFA53E0B], so a key whose top four bits are 14 or 15
   has the last bucket as its home at 4, 8 and 16 buckets alike, and one
   whose top four bits are 0 the first bucket: probe runs of the first
   kind wrap the end of the table into those of the second, and removing
   any of them makes backward-shift deletion move entries across the
   wrap. The model test holds at most these ten keys, so the table stays
   at 16 buckets or fewer. *)
let ix_keys =
  let top4 k = (k * 0x4F1BBCDCBFA53E0B) lsr 59 in
  let rec pick want n k acc =
    if n = 0 then List.rev acc
    else if want (top4 k) then pick want (n - 1) (k + 1) (k :: acc)
    else pick want n (k + 1) acc
  in
  Array.of_list (pick (fun h -> h >= 14) 7 0 [] @ pick (fun h -> h = 0) 3 0 [])

let ix_op_print = function
  | Ix_add (k, v) -> Printf.sprintf "Add(%d,%d)" k v
  | Ix_remove k -> Printf.sprintf "Remove %d" k
  | Ix_clear -> "Clear"

let ix_op_gen =
  QCheck.Gen.(
    let key = map (Array.get ix_keys) (int_bound (Array.length ix_keys - 1)) in
    frequency
      [
        (6, map2 (fun k v -> Ix_add (k, v)) key (int_range 0 99));
        (4, map (fun k -> Ix_remove k) key);
        (1, return Ix_clear);
      ])

(* [Index] against a Hashtbl on colliding keys, from a table of 4 or 8
   buckets: after every operation, [find] and [mem] of every key, [size]
   and the bindings [fold] visits agree with the model. *)
let qcheck_index_model =
  QCheck.Test.make ~name:"Index matches a Hashtbl on colliding keys"
    ~count:500
    QCheck.(
      pair (int_range 2 3)
        (make
           ~print:(fun l -> String.concat "; " (List.map ix_op_print l))
           Gen.(list_size (int_range 0 80) ix_op_gen)))
    (fun (log2, ops) ->
      let t = Dpa_util.Index.create ~log2 in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | Ix_add (k, v) ->
            Dpa_util.Index.add t k v;
            Hashtbl.replace model k v
          | Ix_remove k ->
            Dpa_util.Index.remove t k;
            Hashtbl.remove model k
          | Ix_clear ->
            Dpa_util.Index.clear t;
            Hashtbl.reset model);
          let sorted l = List.sort compare l in
          Array.for_all
            (fun k ->
              let want = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
              Dpa_util.Index.find t k = want
              && Dpa_util.Index.mem t k = Hashtbl.mem model k)
            ix_keys
          && Dpa_util.Index.size t = Hashtbl.length model
          && sorted (Dpa_util.Index.fold t (fun k v acc -> (k, v) :: acc) [])
             = sorted (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))
        ops)

type d_op = Add of int | Mem of int | Clear_d

let d_op_print = function
  | Add p -> Printf.sprintf "Add %d" p
  | Mem p -> Printf.sprintf "Mem %d" p
  | Clear_d -> "Clear"

(* D against a Hashtbl set: membership, size and peak (which survives
   clears) agree after every operation. *)
let qcheck_align_buffer_model =
  QCheck.Test.make ~name:"D matches a Hashtbl set" ~count:500
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map d_op_print l))
       QCheck.Gen.(
         list_size (int_range 0 200)
           (frequency
              [
                (6, map (fun p -> Add p) (int_range 0 300));
                (4, map (fun p -> Mem p) (int_range 0 300));
                (1, return Clear_d);
              ])))
    (fun ops ->
      let d = Dpa.Align_buffer.create () in
      let model = Hashtbl.create 16 and peak = ref 0 in
      let ptr_of p = Dpa_heap.Gptr.make ~node:(p mod 5) ~slot:(p / 5) in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Add p ->
              Dpa.Align_buffer.add d (ptr_of p);
              Hashtbl.replace model p ();
              peak := max !peak (Hashtbl.length model);
              true
            | Mem p -> Dpa.Align_buffer.mem d (ptr_of p) = Hashtbl.mem model p
            | Clear_d ->
              Dpa.Align_buffer.clear d;
              Hashtbl.reset model;
              true
          in
          agree
          && Dpa.Align_buffer.size d = Hashtbl.length model
          && Dpa.Align_buffer.peak d = !peak)
        ops)

(* A bounded D against the reference LRU, [Dpa_util.Lru]: hit or miss,
   size, evictions and the membership of every key agree after every
   operation, at capacities 0 to 8. [Mem] is the recency-touching lookup
   ([find]); evictions survive [Clear]. *)
module Lru_model = Dpa_util.Lru.Make (Dpa_heap.Gptr.Tbl)

let qcheck_bounded_align_buffer_model =
  QCheck.Test.make ~name:"bounded D matches Dpa_util.Lru" ~count:500
    (QCheck.make
       ~print:(fun (cap, l) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map d_op_print l)))
       QCheck.Gen.(
         pair (int_range 0 8)
           (list_size (int_range 0 200)
              (frequency
                 [
                   (5, map (fun p -> Add p) (int_range 0 15));
                   (5, map (fun p -> Mem p) (int_range 0 15));
                   (1, return Clear_d);
                 ]))))
    (fun (capacity, ops) ->
      let d = Dpa.Align_buffer.bounded ~capacity in
      let model = Lru_model.create ~capacity in
      let ptr_of p = Dpa_heap.Gptr.make ~node:(p mod 3) ~slot:(p / 3) in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | Add p ->
              Dpa.Align_buffer.add d (ptr_of p);
              Lru_model.add model (ptr_of p) ();
              true
            | Mem p ->
              Dpa.Align_buffer.find d (ptr_of p)
              = (Lru_model.find model (ptr_of p) <> None)
            | Clear_d ->
              Dpa.Align_buffer.clear d;
              Lru_model.clear model;
              true
          in
          agree
          && Dpa.Align_buffer.size d = Lru_model.size model
          && Dpa.Align_buffer.evictions d = Lru_model.evictions model
          && List.for_all
               (fun p ->
                 Dpa.Align_buffer.mem d (ptr_of p)
                 = Lru_model.mem model (ptr_of p))
               (List.init 16 Fun.id))
        ops)

(* One token's chain outlasts several poll quanta. Node 0's items all
   read one object on node 1, so every thread merges onto a single token
   and the reply wakes them as one chain entry; each continuation charges
   [work] ns. The per-waiter schedule the chain must reproduce: threads
   run in registration order, consecutive ones [work + dispatch] ns
   apart, and a quantum admits ceil (quantum / (work + dispatch))
   threads before the next quantum event resumes the chain where the cut
   left it. *)
let test_chain_cut_by_quantum () =
  let n = 10 and work = 20_000 in
  let w = Workload.make ~nnodes:2 ~nobjs:1 in
  let engine = Engine.create (machine 2) in
  let m = Engine.machine engine in
  let node0 = Engine.node engine 0 in
  let seen = ref [] in
  let items node =
    if node = 1 then [||]
    else
      Array.init n (fun i ctx ->
          Dpa.Runtime.read ctx w.Workload.ptrs.(1).(0) (fun ctx _ ->
              seen :=
                (i, node0.Node.clock, Engine.events_processed engine) :: !seen;
              Dpa.Runtime.charge ctx work))
  in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps:w.Workload.heaps
      ~config:(Dpa.Config.dpa ~strip_size:n ())
      ~items
  in
  Alcotest.(check int) "one fetch" 1 stats.Dpa.Dpa_stats.spawns;
  Alcotest.(check int) "the rest merged" (n - 1) stats.Dpa.Dpa_stats.merge_hits;
  let seen = Array.of_list (List.rev !seen) in
  Alcotest.(check (list int)) "registration order" (List.init n Fun.id)
    (Array.to_list (Array.map (fun (i, _, _) -> i) seen));
  let step = work + m.Machine.dispatch_overhead_ns in
  let per_quantum = (m.Machine.poll_quantum_ns + step - 1) / step in
  Alcotest.(check bool) "the chain spans several quanta" true
    (n > 2 * per_quantum);
  let _, c0, _ = seen.(0) in
  Array.iteri
    (fun i (_, c, e) ->
      Alcotest.(check int) (Printf.sprintf "thread %d clock" i) (c0 + (i * step)) c;
      if i > 0 then
        let _, _, e_prev = seen.(i - 1) in
        Alcotest.(check bool)
          (Printf.sprintf "thread %d opens a quantum" i)
          (i mod per_quantum = 0) (e <> e_prev))
    seen

(* The read classification of a Barnes-Hut force phase: 512 Plummer
   bodies on 4 nodes, strip 50, the machine's fault seed 7. Each remote
   read tries M's by-pointer merge before D: D and M never hold the same
   pointer, so the order cannot move a read between the two, and these
   counts are pinned as they were while D was probed first. Under
   [heavy,crashes=1] delayed replies land before the reads that would
   have merged onto them, which turns 118 merges into D hits. *)
let bh_inputs =
  lazy
    (let bodies = Dpa_bh.Plummer.generate ~n:512 ~seed:17 in
     let octree = Dpa_bh.Octree.build ~leaf_cap:8 bodies in
     (bodies, Dpa_bh.Bh_global.distribute octree ~nnodes:4))

let bh_phase ?faults () =
  let bodies, tree = Lazy.force bh_inputs in
  let engine =
    Engine.create { (machine 4) with Machine.faults; fault_seed = 7 }
  in
  Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
    ~params:Dpa_bh.Bh_force.default_params
    (Dpa_baselines.Variant.dpa ~strip_size:50 ())

let check_bh_classification ?faults want () =
  let s = Option.get (bh_phase ?faults ()).Dpa_bh.Bh_run.dpa_stats in
  let open Dpa.Dpa_stats in
  Alcotest.(check (list (pair string int)))
    "read classification" want
    [
      ("inline_local", s.inline_local);
      ("align_hits", s.align_hits);
      ("merge_hits", s.merge_hits);
      ("spawns", s.spawns);
      ("max_outstanding", s.max_outstanding);
      ("align_peak", s.align_peak);
      ("crashes", s.crashes);
    ]

let test_bh_classification =
  check_bh_classification
    [
      ("inline_local", 16081);
      ("align_hits", 0);
      ("merge_hits", 35974);
      ("spawns", 1565);
      ("max_outstanding", 2468);
      ("align_peak", 169);
      ("crashes", 0);
    ]

let test_bh_classification_crashes =
  check_bh_classification
    ~faults:
      (Result.get_ok (Dpa_sim.Fault.spec_of_string "heavy,crashes=1"))
    [
      ("inline_local", 16081);
      ("align_hits", 118);
      ("merge_hits", 35856);
      ("spawns", 1565);
      ("max_outstanding", 2276);
      ("align_peak", 169);
      ("crashes", 4);
    ]

(* Once a token's reply is delivered its pointer is in D and no longer in
   M. In M alone: a merge on a consumed token's pointer fails. In the
   runtime: a thread woken by the reply reads the same pointer again, and
   that read is a D hit, neither a merge nor a second fetch. *)
let test_delivered_pointer_leaves_m () =
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:"" in
  let ring = Dpa.Ready_ring.create ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:1 ~slot:0 in
  let token = register m ~reuse:true p "a" in
  Alcotest.(check bool) "merge while in flight" true
    (Dpa.Pointer_map.merge m p "b");
  ignore (Dpa.Pointer_map.take m token ring);
  Alcotest.(check bool) "merge after the reply" false
    (Dpa.Pointer_map.merge m p "c");
  let w = Workload.make ~nnodes:2 ~nobjs:1 in
  let p = w.Workload.ptrs.(1).(0) in
  let _, stats =
    Dpa.Runtime.run_phase ~engine:(Engine.create (machine 2))
      ~heaps:w.Workload.heaps ~config:(Dpa.Config.dpa ())
      ~items:(fun node ->
        if node = 0 then
          [|
            (fun ctx ->
              Dpa.Runtime.read ctx p (fun ctx _ ->
                  Dpa.Runtime.read ctx p (fun _ _ -> ())));
          |]
        else [||])
  in
  let open Dpa.Dpa_stats in
  Alcotest.(check (list (pair string int)))
    "the second read hits D"
    [ ("spawns", 1); ("merge_hits", 0); ("align_hits", 1) ]
    [
      ("spawns", stats.spawns);
      ("merge_hits", stats.merge_hits);
      ("align_hits", stats.align_hits);
    ]

(* The hot-path allocation contract (docs/PERFORMANCE.md §4): a
   strip-mined phase of local reads (cheap threads, and threads that each
   spend a whole poll quantum), and one of remote reads that merge onto
   in-flight fetches, allocate at most half a word per read; a phase whose
   every read is a fresh remote fetch, at most six. *)

(* Words allocated so far: minor words plus what went to the major heap
   directly. OCaml 5.1's [Gc.allocated_bytes] (and the minor figure of
   [Gc.counters]) reads the minor heap's uncollected tail at an eighth of
   its size, and [Gc.quick_stat]'s major words leave out fresh major
   arrays; [Gc.minor_words] is exact, and [Gc.counters]' major minus
   promoted words is the direct major allocation. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words allocated per read by the second of two runs of [run] (the first
   warms module initialisation and grows the runtime's arrays). *)
let words_per_read ~reads run =
  ignore (run ());
  let w0 = allocated_words () in
  let s = run () in
  let w1 = allocated_words () in
  ignore (Sys.opaque_identity s);
  (w1 -. w0) /. float_of_int reads

(* The harness must not allocate per read either: the accumulator is a
   float array (a [float ref] boxes on every [:=]), the field is loaded
   straight from the float pool (a float returned by a non-inlined call is
   boxed) and the continuation closure is hoisted out of the read loop.
   Each continuation charges [work] ns; [run engine items] runs the phase
   on runtime [A] and returns its statistics. *)
let alloc_phase (type c) (module A : Dpa.Access.S with type ctx = c) ?faults
    ~run ~work ~nnodes ~nitems ~reads ~target =
  let acc = Array.make 1 0. in
  let k ctx view =
    Node.charge_local (A.node ctx) work;
    let h = (A.heaps ctx).(Dpa_heap.Gptr.node view) in
    acc.(0) <-
      acc.(0)
      +. Bigarray.Array1.get
           (Dpa_heap.Heap.float_pool h)
           (Dpa_heap.Heap.float_base h view)
  in
  fun () ->
    run
      (Engine.create { (machine nnodes) with Machine.faults; fault_seed = 7 })
      (fun node ->
        Array.init nitems (fun item ->
            fun ctx ->
              for r = 0 to reads - 1 do
                A.read ctx (target ~node ~item ~r) k
              done))

let dpa_phase ?faults ~heaps =
  alloc_phase
    (module Dpa.Runtime) ?faults
    ~run:(fun engine items ->
      snd
        (Dpa.Runtime.run_phase ~engine ~heaps
           ~config:(Dpa.Config.dpa ~strip_size:16 ())
           ~items))

let alloc_objects heaps ~node n =
  Array.init n (fun slot ->
      Dpa_heap.Heap.alloc heaps.(node) ~floats:[| float_of_int slot |] ~ptrs:[||])

let check_words_per_read ?(bound = 0.5) ~reads run =
  let per_read = words_per_read ~reads run in
  if per_read > bound then
    Alcotest.failf "%.2f words per read over %d reads (bound %.2f)" per_read
      reads bound

(* Purely local reads: spawn, ready-ring dispatch and continuation with no
   wire traffic. With [work] at one poll quantum each dispatch ends its
   quantum and posts the next, gating the per-quantum cost on its own. *)
let test_local_reads_alloc ~work () =
  let nobjs = 4096 and nitems = 512 and reads = 64 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes:1 in
  let ptrs = alloc_objects heaps ~node:0 nobjs in
  check_words_per_read ~reads:(nitems * reads)
    (dpa_phase ~heaps ~work ~nnodes:1 ~nitems ~reads
       ~target:(fun ~node:_ ~item ~r ->
         ptrs.(((item * 104729) + (r * 1299721)) mod nobjs)))

(* Two nodes whose items each read a handful of objects on the other node:
   the first read of each object takes a fresh token and every later one
   merges onto it in M; the bulk reply wakes the merged threads as one
   chain entry per token. The residue is each fresh token's request and
   reply traffic, spread over the strip. *)
let test_merged_remote_reads_alloc () =
  let nnodes = 2 and nobjs = 8 and nitems = 512 and reads = 64 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs = Array.init nnodes (fun node -> alloc_objects heaps ~node nobjs) in
  check_words_per_read ~reads:(nnodes * nitems * reads)
    (dpa_phase ~heaps ~work:100 ~nnodes ~nitems ~reads
       ~target:(fun ~node ~item ~r -> ptrs.(1 - node).((item + r) mod nobjs)))

(* Every read names a distinct object on the other node, so each takes a
   fresh token, nothing merges and nothing hits D: the whole request path
   — aggregation, the request message, the owner's service handler, the
   bulk reply and its wake — runs once per read. *)
let test_fresh_remote_reads_alloc () =
  let nnodes = 2 and nitems = 512 and reads = 16 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nnodes (fun node -> alloc_objects heaps ~node (nitems * reads))
  in
  check_words_per_read ~bound:6. ~reads:(nnodes * nitems * reads)
    (dpa_phase ~heaps ~work:100 ~nnodes ~nitems ~reads
       ~target:(fun ~node ~item ~r -> ptrs.(1 - node).((item * reads) + r)))

(* The same fresh reads over a lossy network: every request and bulk
   reply rides a reliable envelope (copies, acks, a retransmit timeout)
   and every token arms an end-to-end request timer, all of them slab
   data. The slabs and the dedup sets grow with the phase's peak
   occupancy, a set-up cost, so the figure is the difference between a
   phase of [2n] items and one of [n], in minor words. A read costs 2.3
   words here; it cost 24.5 while envelopes, copies, acks and request
   timers were closures. *)
let test_fresh_remote_reads_faults_alloc () =
  let nnodes = 2 and nmax = 1024 and reads = 16 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nnodes (fun node -> alloc_objects heaps ~node (nmax * reads))
  in
  let faults =
    { Fault.none with Fault.drop = 0.05; dup = 0.02; delay = 0.1; corrupt = 0.02 }
  in
  let measure nitems =
    let run =
      dpa_phase ~faults ~heaps ~work:100 ~nnodes ~nitems ~reads
        ~target:(fun ~node ~item ~r -> ptrs.(1 - node).((item * reads) + r))
    in
    ignore (run ());
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ()));
    Gc.minor_words () -. w0
  in
  let w1 = measure (nmax / 2) in
  let w2 = measure nmax in
  let per_read = (w2 -. w1) /. float_of_int (nnodes * (nmax / 2) * reads) in
  if per_read > 6. then
    Alcotest.failf "%.2f minor words per fresh read under faults (bound 6)"
      per_read

(* Request/reply traffic at 64 nodes: every read names a distinct object
   on a rotating destination, so most batches carry one or two entries
   and each request message comes with its bulk reply. What a message
   costs beyond its request array (one header word plus two ints per
   entry) — the owner's service, the reply, its wake, and the fresh token
   and continuation of each of its reads — is the difference between a
   phase of [2n] items and one of [n], which cancels the per-phase set-up
   of 64 contexts and their per-destination buffers. Minor-heap words
   only: the per-message path allocates nothing large, and the major
   heap's counters take in direct allocations (the set-up's big arrays)
   late, at a time that depends on what ran before. *)
let test_request_reply_alloc () =
  let nnodes = 64 and reads = 8 and nmax = 256 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nnodes (fun node -> alloc_objects heaps ~node (nmax * reads))
  in
  (* Words beyond the request arrays, and request messages. *)
  let measure nitems =
    let run =
      dpa_phase ~heaps ~work:100 ~nnodes ~nitems ~reads
        ~target:(fun ~node ~item ~r ->
          let i = (item * reads) + r in
          ptrs.((node + 1 + (i mod (nnodes - 1))) mod nnodes).(i))
    in
    ignore (run ());
    let w0 = Gc.minor_words () in
    let s = run () in
    let words = Gc.minor_words () -. w0 in
    let msgs = s.Dpa.Dpa_stats.request_msgs in
    (words -. float_of_int ((2 * s.Dpa.Dpa_stats.requests) + msgs), msgs)
  in
  let w1, m1 = measure (nmax / 2) in
  let w2, m2 = measure nmax in
  let per_msg = (w2 -. w1) /. float_of_int (m2 - m1) in
  if per_msg > 2. then
    Alcotest.failf
      "%.2f words per request/reply message beyond the request array over %d \
       messages (bound 2)"
      per_msg (m2 - m1)

(* The caching runtime's share of the contract, on [alloc_phase]'s
   harness; the continuation charges 100 ns. *)
let caching_phase ?faults ~capacity ~hash ~heaps =
  alloc_phase
    (module Dpa_baselines.Caching) ?faults
    ~run:(fun engine items ->
      snd
        (Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity ~hash ~items
           ()))
    ~work:100

(* Two nodes whose items alternate local reads with reads of eight objects
   on the other node: after the first eight misses every remote read hits
   the cache, so the phase is hash probes, cache touches and the work
   list. *)
let test_caching_hits_alloc () =
  let nnodes = 2 and nobjs = 64 and nitems = 512 and reads = 64 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs = Array.init nnodes (fun node -> alloc_objects heaps ~node nobjs) in
  check_words_per_read ~reads:(nnodes * nitems * reads)
    (caching_phase ~capacity:16 ~hash:true ~heaps ~nnodes ~nitems ~reads
       ~target:(fun ~node ~item ~r ->
         if r land 1 = 0 then ptrs.(node).((item + r) mod nobjs)
         else ptrs.(1 - node).((item + r) mod 8)))

(* Blocking reads: no cache, every read a distinct remote object, so each
   is one miss — the request, the owner's reply and the resumption. *)
let test_blocking_misses_alloc () =
  let nnodes = 2 and nitems = 1024 and reads = 16 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nnodes (fun node -> alloc_objects heaps ~node (nitems * reads))
  in
  check_words_per_read ~bound:8. ~reads:(nnodes * nitems * reads)
    (caching_phase ~capacity:0 ~hash:false ~heaps ~nnodes ~nitems ~reads
       ~target:(fun ~node ~item ~r -> ptrs.(1 - node).((item * reads) + r)))

(* The same misses over a lossy network: each request and reply rides a
   reliable envelope and each fetch arms an end-to-end timer. As in
   [test_fresh_remote_reads_faults_alloc], the figure is the difference
   between a phase of [2n] items and one of [n], in minor words. A miss
   costs 0.5 words here; it cost 8.5 while each fetch timer was a
   closure. *)
let test_blocking_misses_faults_alloc () =
  let nnodes = 2 and nmax = 1024 and reads = 16 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nnodes (fun node -> alloc_objects heaps ~node (nmax * reads))
  in
  let faults =
    { Fault.none with Fault.drop = 0.05; dup = 0.02; delay = 0.1; corrupt = 0.02 }
  in
  let measure nitems =
    let run =
      caching_phase ~faults ~capacity:0 ~hash:false ~heaps ~nnodes ~nitems
        ~reads ~target:(fun ~node ~item ~r ->
          ptrs.(1 - node).((item * reads) + r))
    in
    ignore (run ());
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ()));
    Gc.minor_words () -. w0
  in
  let w1 = measure (nmax / 2) in
  let w2 = measure nmax in
  let per_miss = (w2 -. w1) /. float_of_int (nnodes * (nmax / 2) * reads) in
  if per_miss > 2. then
    Alcotest.failf "%.2f minor words per blocking miss under faults (bound 2)"
      per_miss

(* Remote accumulates: every item adds into four distinct counters on the
   other node, so nothing combines and each accumulate is one batch entry
   — buffered, copied once into the sender's batch store, sent and applied
   — and, under [faults], WAL-journaled at both ends, timed and acked. The
   value is a literal, so the harness allocates only each item's closure.
   The owner adds each entry's value into its heap's float pool without
   boxing it. Minor words of the second of two runs, per accumulate: 2.4
   fault-free and 3.3 under faults (4.4 and 5.3 while the owner passed
   each value to a non-inlined [Heap.bump_float]); the bounds are 1.5
   times those. *)
let accumulate_words ?faults () =
  let nnodes = 2 and nitems = 1024 and reads = 4 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs =
    Array.init nnodes (fun node -> alloc_objects heaps ~node (nitems * reads))
  in
  let run () =
    Dpa.Runtime.run_phase
      ~engine:
        (Engine.create { (machine nnodes) with Machine.faults; fault_seed = 7 })
      ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:16 ())
      ~items:(fun node ->
        Array.init nitems (fun item ctx ->
            for r = 0 to reads - 1 do
              Dpa.Runtime.accumulate ctx
                ptrs.(1 - node).((item * reads) + r)
                ~idx:0 1.0
            done))
  in
  ignore (run ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (run ()));
  (Gc.minor_words () -. w0) /. float_of_int (nnodes * nitems * reads)

let test_accumulate_alloc ?faults ~bound () =
  let per_update = accumulate_words ?faults () in
  if per_update > bound then
    Alcotest.failf "%.2f minor words per remote accumulate (bound %.1f)"
      per_update bound

(* The Barnes-Hut force phase of [bh_inputs], faults off: the kernel's
   field reads through the inlined heap accessors, the
   read/merge/wake/dispatch cycle and the phase set-up together. Words
   per body of the second of two runs: 181.8 in a dev build, 175.7 in a
   release build, both before and after the cycle's accessors were
   inlined. A float boxed per read would add about 200. *)
let test_bh_force_alloc () =
  let per_body =
    words_per_read ~reads:512 (fun () -> bh_phase ())
  in
  if per_body > 184. then
    Alcotest.failf "%.2f words per body in a BH force phase (bound 184)"
      per_body

(* Buffers sized by destination cost a few words per destination until a
   destination is used: a phase creates them for every (node, destination)
   pair. *)
let test_buffer_setup_alloc () =
  let ndest = 4096 in
  let create () =
    ignore
      (Sys.opaque_identity
         (Dpa_msg.Aggregator.create ~ndest ~max_batch:64 ~flush:(fun ~dst:_ _ ->
              ())));
    ignore
      (Sys.opaque_identity
         (Dpa.Update_buffer.create ~ndest ~combine:true ~max_batch:64
            ~flush:(fun ~dst:_ _ -> ())
            ()))
  in
  create ();
  let w0 = allocated_words () in
  create ();
  let per_dest = (allocated_words () -. w0) /. float_of_int ndest in
  if per_dest >= 8. then
    Alcotest.failf "%.2f words per destination to create both buffers (bound 8)"
      per_dest

let suites =
  [
    ( "core.pointer_map",
      [
        Alcotest.test_case "reuse merges" `Quick test_pointer_map_reuse_merges;
        Alcotest.test_case "take order" `Quick test_pointer_map_take_order;
        Alcotest.test_case "no-reuse never merges" `Quick
          test_pointer_map_no_reuse_never_merges;
        Alcotest.test_case "unknown token" `Quick test_pointer_map_unknown_token;
        Alcotest.test_case "reclaim mid-chain" `Quick
          test_pointer_map_reclaim_mid_chain;
        QCheck_alcotest.to_alcotest qcheck_pointer_map_one_request_per_pointer;
        QCheck_alcotest.to_alcotest qcheck_pointer_map_model;
      ] );
    ( "core.timer_slab",
      [
        QCheck_alcotest.to_alcotest qcheck_timer_slab_model;
        Alcotest.test_case "message timer walk" `Quick test_message_timer_walk;
      ] );
    ( "core.align_buffer",
      [
        QCheck_alcotest.to_alcotest qcheck_align_buffer_model;
        QCheck_alcotest.to_alcotest qcheck_bounded_align_buffer_model;
      ] );
    ( "core.index",
      [
        Alcotest.test_case "present key keeps size" `Quick test_index_present_key;
        QCheck_alcotest.to_alcotest qcheck_index_model;
      ] );
    ( "core.runtime",
      [
        Alcotest.test_case "correct sums" `Quick test_dpa_correct_sums;
        Alcotest.test_case "one node all local" `Quick
          test_dpa_correct_sums_one_node;
        Alcotest.test_case "read accounting" `Quick test_dpa_read_accounting;
        Alcotest.test_case "strip count" `Quick test_dpa_strip_count;
        Alcotest.test_case "reuse reduces fetches" `Quick
          test_dpa_reuse_reduces_fetches;
        Alcotest.test_case "aggregation reduces messages" `Quick
          test_dpa_aggregation_reduces_messages;
        Alcotest.test_case "outstanding bounded by strip" `Quick
          test_dpa_outstanding_bounded_by_strip;
        Alcotest.test_case "deterministic" `Quick test_dpa_deterministic;
        Alcotest.test_case "strip size one" `Quick test_dpa_strip_size_one_works;
        Alcotest.test_case "empty items" `Quick test_dpa_empty_items;
        Alcotest.test_case "rejects nil" `Quick test_dpa_rejects_nil;
        Alcotest.test_case "chain cut by the quantum" `Quick
          test_chain_cut_by_quantum;
        Alcotest.test_case "bh read classification" `Quick
          test_bh_classification;
        Alcotest.test_case "bh read classification under crashes" `Quick
          test_bh_classification_crashes;
        Alcotest.test_case "delivered pointer leaves M for D" `Quick
          test_delivered_pointer_leaves_m;
        Alcotest.test_case "recycled waiter cells" `Quick
          test_recycled_waiter_cells;
        Alcotest.test_case "recycled ring slots" `Quick test_recycled_ring_slots;
        Alcotest.test_case "reclaim over recycled cells and slots" `Quick
          test_reclaim_recycled;
        Alcotest.test_case "dispatch with none pending" `Quick
          test_dispatch_underflow;
      ] );
    ( "core.alloc",
      [
        Alcotest.test_case "local reads" `Quick
          (test_local_reads_alloc ~work:100);
        Alcotest.test_case "quantum-bound local reads" `Quick
          (test_local_reads_alloc ~work:(machine 1).Machine.poll_quantum_ns);
        Alcotest.test_case "merged remote reads" `Quick
          test_merged_remote_reads_alloc;
        Alcotest.test_case "fresh remote reads" `Quick
          test_fresh_remote_reads_alloc;
        Alcotest.test_case "buffer setup" `Quick test_buffer_setup_alloc;
        Alcotest.test_case "request/reply at 64 nodes" `Quick
          test_request_reply_alloc;
        Alcotest.test_case "caching hits and local reads" `Quick
          test_caching_hits_alloc;
        Alcotest.test_case "blocking misses" `Quick test_blocking_misses_alloc;
        Alcotest.test_case "fresh remote reads under faults" `Quick
          test_fresh_remote_reads_faults_alloc;
        Alcotest.test_case "blocking misses under faults" `Quick
          test_blocking_misses_faults_alloc;
        Alcotest.test_case "remote accumulates" `Quick
          (test_accumulate_alloc ~bound:3.6);
        Alcotest.test_case "remote accumulates under faults" `Quick
          (test_accumulate_alloc
             ~faults:
               {
                 Fault.none with
                 Fault.drop = 0.05;
                 dup = 0.02;
                 delay = 0.1;
                 corrupt = 0.02;
               }
             ~bound:5.);
        Alcotest.test_case "bh force phase" `Quick test_bh_force_alloc;
      ] );
  ]
