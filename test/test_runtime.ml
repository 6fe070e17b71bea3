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

let test_pointer_map_reuse_merges () =
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:0 in
  (match Dpa.Pointer_map.register m ~reuse:true p "a" with
  | `New_request _ -> ()
  | `Merged -> Alcotest.fail "first should request");
  (match Dpa.Pointer_map.register m ~reuse:true p "b" with
  | `Merged -> ()
  | `New_request _ -> Alcotest.fail "second should merge");
  Alcotest.(check int) "one token" 1 (Dpa.Pointer_map.outstanding m);
  Alcotest.(check int) "two waiters" 2 (Dpa.Pointer_map.waiters m)

(* Pop every entry of a ready ring: the threads a take woke, in order. *)
let drain_ring ring =
  let rec go acc =
    if Dpa.Ready_ring.is_empty ring then List.rev acc
    else begin
      let p = Dpa.Ready_ring.head_ptr ring and k = Dpa.Ready_ring.head_k ring in
      Dpa.Ready_ring.drop ring;
      go ((p, k) :: acc)
    end
  in
  go []

let test_pointer_map_take_order () =
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:"" in
  let ring = Dpa.Ready_ring.create ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:1 in
  let token =
    match Dpa.Pointer_map.register m ~reuse:true p "a" with
    | `New_request t -> t
    | `Merged -> Alcotest.fail "unexpected merge"
  in
  ignore (Dpa.Pointer_map.register m ~reuse:true p "b");
  ignore (Dpa.Pointer_map.register m ~reuse:true p "c");
  let ptr = Dpa.Pointer_map.take m token ring in
  Alcotest.(check bool) "ptr matches" true (Dpa_heap.Gptr.equal p ptr);
  let woken = drain_ring ring in
  Alcotest.(check (list string)) "registration order" [ "a"; "b"; "c" ]
    (List.map snd woken);
  Alcotest.(check bool) "woken on the pointer" true
    (List.for_all (fun (q, _) -> Dpa_heap.Gptr.equal p q) woken);
  Alcotest.(check bool) "empty after take" true (Dpa.Pointer_map.is_empty m);
  (* A new registration after take must issue a fresh request. *)
  match Dpa.Pointer_map.register m ~reuse:true p "d" with
  | `New_request _ -> ()
  | `Merged -> Alcotest.fail "should re-request after take"

let test_pointer_map_no_reuse_never_merges () =
  let m = Dpa.Pointer_map.create ~node:0 ~dummy:() in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:2 in
  for _ = 1 to 5 do
    match Dpa.Pointer_map.register m ~reuse:false p () with
    | `New_request _ -> ()
    | `Merged -> Alcotest.fail "must not merge without reuse"
  done;
  Alcotest.(check int) "five tokens" 5 (Dpa.Pointer_map.outstanding m)

(* Fault-free, a reply for a token M does not hold is a protocol error:
   the failure names the node and the token. The idempotent form yields
   nil and wakes nothing. *)
let test_pointer_map_unknown_token () =
  let m = Dpa.Pointer_map.create ~node:3 ~dummy:"" in
  let ring = Dpa.Ready_ring.create ~dummy:"" in
  let p = Dpa_heap.Gptr.make ~node:1 ~slot:4 in
  let token =
    match Dpa.Pointer_map.register m ~reuse:true p "a" with
    | `New_request t -> t
    | `Merged -> Alcotest.fail "unexpected merge"
  in
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
          match Dpa.Pointer_map.register m ~reuse:true p () with
          | `New_request _ ->
            if Hashtbl.mem requests (node, slot) then
              failwith "duplicate request"
            else Hashtbl.replace requests (node, slot) ()
          | `Merged ->
            if not (Hashtbl.mem requests (node, slot)) then
              failwith "merged without request"
        )
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
        `Merged
      | None ->
        let token = fresh t ptr k in
        Gptr.Tbl.replace t.by_ptr ptr token;
        `New_request token
    else `New_request (fresh t ptr k)

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

  let find_ptr t token =
    Option.map (fun slot -> slot.ptr) (Hashtbl.find_opt t.tokens token)

  let outstanding_list t =
    List.sort compare (Hashtbl.fold (fun tok slot acc -> (tok, slot.ptr) :: acc) t.tokens [])

  let clear t =
    Hashtbl.reset t.tokens;
    Gptr.Tbl.reset t.by_ptr;
    t.waiters <- 0
end

type pm_op = Register of int * bool | Take of int | Find of int | Fold | Clear

let pm_op_print = function
  | Register (p, r) -> Printf.sprintf "Register(%d,%b)" p r
  | Take t -> Printf.sprintf "Take %d" t
  | Find t -> Printf.sprintf "Find %d" t
  | Fold -> "Fold"
  | Clear -> "Clear"

let pm_op_gen =
  QCheck.Gen.(
    frequency
      [
        (8, map2 (fun p r -> Register (p, r)) (int_range 0 7) bool);
        (4, map (fun t -> Take t) (int_range 0 40));
        (2, map (fun t -> Find t) (int_range 0 40));
        (1, return Fold);
        (1, return Clear);
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
              Dpa.Pointer_map.register m ~reuse (ptr_of p) k
              = Model.register model ~reuse (ptr_of p) k
            | Take token -> (
              let got = Dpa.Pointer_map.take_or_nil m token ring in
              let woken = drain_ring ring in
              match Model.take_opt model token with
              | None -> Dpa_heap.Gptr.is_nil got && woken = []
              | Some (ptr, ks) ->
                Dpa_heap.Gptr.equal got ptr
                && List.map snd woken = ks
                && List.for_all (fun (q, _) -> Dpa_heap.Gptr.equal q ptr) woken)
            | Find token ->
              Dpa.Pointer_map.find_ptr m token = Model.find_ptr model token
            | Fold ->
              List.sort compare
                (Dpa.Pointer_map.fold_outstanding m
                   (fun tok p acc -> (tok, p) :: acc)
                   [])
              = Model.outstanding_list model
            | Clear ->
              Dpa.Pointer_map.clear m;
              Model.clear model;
              true
          in
          agree
          && Dpa.Pointer_map.waiters m = model.Model.waiters
          && Dpa.Pointer_map.outstanding m = Hashtbl.length model.Model.tokens
          && Dpa.Pointer_map.is_empty m = (Hashtbl.length model.Model.tokens = 0))
        ops)

let test_align_buffer_strip_clear () =
  let d = Dpa.Align_buffer.create () in
  let p = Dpa_heap.Gptr.make ~node:0 ~slot:0 in
  Dpa.Align_buffer.add d p;
  Alcotest.(check bool) "present" true (Dpa.Align_buffer.mem d p);
  Dpa.Align_buffer.clear d;
  Alcotest.(check bool) "cleared" false (Dpa.Align_buffer.mem d p);
  Alcotest.(check int) "peak survives clear" 1 (Dpa.Align_buffer.peak d)

let suites =
  [
    ( "core.pointer_map",
      [
        Alcotest.test_case "reuse merges" `Quick test_pointer_map_reuse_merges;
        Alcotest.test_case "take order" `Quick test_pointer_map_take_order;
        Alcotest.test_case "no-reuse never merges" `Quick
          test_pointer_map_no_reuse_never_merges;
        Alcotest.test_case "unknown token" `Quick test_pointer_map_unknown_token;
        QCheck_alcotest.to_alcotest qcheck_pointer_map_one_request_per_pointer;
        QCheck_alcotest.to_alcotest qcheck_pointer_map_model;
      ] );
    ( "core.align_buffer",
      [ Alcotest.test_case "strip clear" `Quick test_align_buffer_strip_clear ] );
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
      ] );
  ]
