(** Direct O(n²) summation: the accuracy yardstick for Barnes-Hut. *)

val compute_forces : ?eps:float -> Body.t array -> unit
(** Fill [acc] for every body by summing over all pairs. *)
