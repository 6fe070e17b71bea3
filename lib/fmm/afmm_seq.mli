(** Sequential adaptive FMM using a per-leaf dual tree walk: for each leaf,
    descend from the root; a well-separated cell contributes through its
    multipole expansion (M2L to the leaf center, evaluated at the leaf's
    particles), an overlapping leaf contributes by direct summation, and
    anything else recurses into its children. Each source particle is
    covered exactly once (tested), on any tree shape — this is the standard
    treecode/FMM hybrid, and it is the decomposition the distributed
    adaptive phase ({!Afmm_force}) runs under the runtimes. *)

val upward : p:int -> Aquadtree.t -> Expansion.t array
(** Multipole of every cell: P2M at leaves, M2M up. *)

val compute : p:int -> Aquadtree.t -> Fmm_seq.result * int
(** The result, and the number of particle pairs summed directly. *)
