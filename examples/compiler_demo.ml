(* Compiler demo: the paper's §3.4/§4 pipeline on the mini IR.

   Shows the thread partitioning (spawn sites labeled with pointers, and
   access hoisting of same-alias-class pointers) for three programs, then
   executes the tree traversal under DPA and blocking runtimes and compares
   the phase times.

     dune exec examples/compiler_demo.exe *)

open Dpa_compiler
open Dpa_sim

let show name program =
  Format.printf "=== %s ===@.%a@.@." name Pretty.pp_program program;
  List.iter
    (fun info -> Format.printf "%a@.@." Pretty.pp_info info)
    (Partition.analyze_program program)

module I = Interp.Make (Dpa.Runtime)
(* Blocking remote reads: the caching runtime with no cache and no hash
   charge. *)
module B = Interp.Make (Dpa_baselines.Caching)

let nnodes = 8
let depth = 12 (* 4095-node binary tree *)

let () =
  show "list_sum" Programs.list_sum;
  show "tree_sum" Programs.tree_sum;
  show "pair_sum" Programs.pair_sum;

  (* Execute tree_sum over a distributed binary tree. *)
  let build () =
    let heaps = Dpa_heap.Heap.cluster ~nnodes in
    let root =
      Programs.build_tree heaps ~depth
        ~value:(fun i -> float_of_int (i mod 100))
        ~owner:(fun i -> i mod nnodes)
    in
    (heaps, root)
  in
  let heaps, root = build () in
  let c = I.compile Programs.tree_sum in
  let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
  let items node =
    if node = 0 then [| I.item c ~entry:"sum_tree" ~args:[ Value.Ptr root ] |]
    else [||]
  in
  let b_dpa, stats =
    Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items
  in
  Format.printf "tree_sum under DPA:      %a@." Breakdown.pp b_dpa;
  Format.printf "  %a@." Dpa.Dpa_stats.pp stats;
  Format.printf "  sum = %.0f@." (I.accumulator c "sum");

  let heaps, root = build () in
  let cb = B.compile Programs.tree_sum in
  let engine = Engine.create (Machine.t3d ~nodes:nnodes) in
  let items node =
    if node = 0 then [| B.item cb ~entry:"sum_tree" ~args:[ Value.Ptr root ] |]
    else [||]
  in
  let b_blk, _ =
    Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:0 ~hash:false
      ~items ()
  in
  Format.printf "tree_sum under blocking: %a@." Breakdown.pp b_blk;
  Format.printf "  sum = %.0f@." (B.accumulator cb "sum");
  Format.printf "DPA is %.1fx faster on this traversal@."
    (float_of_int b_blk.Breakdown.elapsed_ns
    /. float_of_int b_dpa.Breakdown.elapsed_ns)
