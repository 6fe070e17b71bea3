(** Distributed adaptive-FMM force phase over the {!Dpa.Access.S}
    interface: one work item per owned leaf, performing the dual tree walk
    through the global heap. Reads of remote cell objects (structure +
    multipole in one object, as the paper's inline allocation merges them)
    are the threads DPA aligns. *)

val run :
  ?machine:Dpa_sim.Machine.t ->
  ?params:Fmm_force.params ->
  ?leaf_cap:int ->
  ?seed:int ->
  ?distribution:[ `Uniform | `Clustered of int ] ->
  nnodes:int ->
  nparticles:int ->
  Dpa_baselines.Variant.t ->
  Dpa_sim.Breakdown.t * Fmm_seq.result * Aquadtree.t
(** Build, distribute, and run the timed adaptive force phase. *)
