(** Critical-path analyzer over the happens-before graph ({!Causal}).

    At every engine barrier the current phase window is consumed: the
    longest weighted chain is extracted (latest-ending node, walked back
    through latest-ending predecessors) and decomposed into compute /
    alignment-wait / wire / owner-queue / retransmit / refetch / other
    segments. The decomposition is exact by construction — a forward
    cursor charges every nanosecond of the path to exactly one bucket, so
    the segments always sum to the path length. *)

val buckets : string list
(** Segment bucket names, in report order. *)

val at_barrier : Causal.t -> unit
(** Consume the window: if phase metadata is present ({!Causal.set_meta}),
    analyze and append an {!Causal.instance}; either way the window is
    cleared. Called by {!Dpa_sim.Engine.barrier} when the sink carries a
    causal graph. Unlabeled windows (baseline runtimes) are discarded —
    their flights have no activity chain grounding the path at the phase
    start, so the [max span <= path <= wall] invariants would not hold. *)

val ratio : actual:int -> bound:int -> float
(** Communication-overhead ratio; [1.0] when both are zero, [infinity]
    when only the bound is. *)

val report_json : Causal.t -> Json.t
(** The [--critical-path] artifact: every analyzed instance under
    ["phases"], per-label aggregates under ["summary"], and ["nphases"]. *)
