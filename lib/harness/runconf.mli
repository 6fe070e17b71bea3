(** Experiment scales. [small] keeps every experiment at a size that runs
    in seconds (CI, `make smoke`); [full] is the paper's
    configuration (16,384-body Barnes-Hut over 4 steps, 32,768-particle
    29-term FMM, up to 64 nodes) and takes minutes of host time. *)

type t = {
  name : string;
  bh_bodies : int;
  bh_steps : int;
  fmm_particles : int;
  fmm_p : int;  (** expansion order *)
  procs : int list;
  breakdown_procs : int;  (** node count for the breakdown figures *)
  bh_strip : int;
  fmm_strip : int;  (** the paper uses 300 for FMM's breakdown figure *)
  strip_auto : bool;
      (** replace the static strips with the adaptive controller
          ({!Dpa.Config.dpa_auto}, [--strip auto]); off in both presets *)
  cache_capacity : int;  (** software-caching baseline cache size *)
  repartition : bool;
      (** re-cut Barnes-Hut ownership between steps by each body's measured
          traversal work ({!Dpa_bh.Bh_run.simulate}'s [repartition];
          [--repartition]); off in both presets *)
  route_all : bool;
      (** route every remote accumulate destination through the binomial
          reduction tree ({!Dpa.Config.All_dsts}; [--agg-route]); off in
          both presets *)
}

val small : t
val full : t
