(** End-to-end FMM experiment driver: generate particles, build the tree and
    multipoles (sequential, untimed — the paper times the force-evaluation
    phase), distribute, and run the timed phase under any runtime variant. *)

open Dpa_sim

type phase_result = {
  breakdown : Breakdown.t;
  result : Fmm_seq.result;
  dpa_stats : Dpa.Dpa_stats.t option;  (** DPA and Prefetch variants only *)
}

val force_phase :
  engine:Engine.t ->
  global:Fmm_global.t ->
  params:Fmm_force.params ->
  Dpa_baselines.Variant.t ->
  phase_result

type run_result = {
  phase : phase_result;
  seq_counts : Fmm_seq.counts;  (** structural counts (no arithmetic) *)
  tree : Quadtree.t;
}

val run :
  ?machine:Machine.t ->
  ?params:Fmm_force.params ->
  ?target_occupancy:int ->
  ?seed:int ->
  ?distribution:[ `Uniform | `Clustered of int ] ->
  nnodes:int ->
  nparticles:int ->
  Dpa_baselines.Variant.t ->
  run_result

val structural_counts : Quadtree.t -> Fmm_seq.counts
(** M2L / p2p / eval counts from the tree structure alone (cheap; used for
    speedup denominators without running the sequential FMM). *)

val sequential_ns : params:Fmm_force.params -> Fmm_seq.counts -> int
