(* List traversal: the paper's motivating example shape — a conc loop whose
   iterations each chase a linked list through the global heap.

   Each node owns many list heads; the lists thread through remote nodes.
   DPA aligns the per-iteration threads so same-owner fetches aggregate;
   blocking pays a round trip per hop.

     dune exec examples/list_traversal.exe *)

open Dpa_compiler
open Dpa_sim

let nnodes = 8
let lists_per_node = 32
let list_length = 24

module I = Interp.Make (Dpa.Runtime)

let build_lists heaps =
  (* List l starts on node (l mod nnodes) and strides across the machine. *)
  Array.init (nnodes * lists_per_node) (fun l ->
      Programs.build_list heaps ~length:list_length
        ~value:(fun i -> float_of_int ((l + i) mod 10))
        ~owner:(fun i -> (l + i) mod nnodes))

let () =
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let heads = build_lists heaps in
  let c = I.compile Programs.list_sum in
  let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
  let items node =
    Array.init lists_per_node (fun i ->
        let head = heads.((node * lists_per_node) + i) in
        I.item c ~entry:"sum_list" ~args:[ Value.Ptr head ])
  in
  let breakdown, stats =
    Dpa.Runtime.run_phase ~engine ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:16 ())
      ~items
  in
  Format.printf "DPA:      %a@." Breakdown.pp breakdown;
  Format.printf "  %a@." Dpa.Dpa_stats.pp stats;
  Format.printf "  total sum = %.0f@." (I.accumulator c "sum");

  (* Same workload, blocking remote reads: the caching runtime with no
     cache and no hash charge. *)
  let module BI = Interp.Make (Dpa_baselines.Caching) in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let heads = build_lists heaps in
  let cb = BI.compile Programs.list_sum in
  let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
  let items node =
    Array.init lists_per_node (fun i ->
        let head = heads.((node * lists_per_node) + i) in
        BI.item cb ~entry:"sum_list" ~args:[ Value.Ptr head ])
  in
  let b_blk, _ =
    Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:0 ~hash:false
      ~items ()
  in
  Format.printf "Blocking: %a@." Breakdown.pp b_blk;
  Format.printf "  total sum = %.0f@." (BI.accumulator cb "sum");
  Format.printf "DPA is %.1fx faster@."
    (float_of_int b_blk.Breakdown.elapsed_ns
    /. float_of_int breakdown.Breakdown.elapsed_ns)
