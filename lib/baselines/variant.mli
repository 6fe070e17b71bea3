(** The runtime under test, and the one place a phase is dispatched onto
    it. Applications write each phase once as a functor over
    {!Dpa.Access.S}, build its items with a local functor application, and
    call {!run_phase}; no other module chooses a runtime.

    {v
    constructor         runtime                               phase label
    Dpa c               Dpa.Runtime, config c                 label
    Prefetch {s}        Dpa.Runtime, Config.pipeline_only s   label-prefetch
    Caching {capacity}  Caching.run_phase ~capacity           (none)
    Blocking            Caching.run_phase ~capacity:0         (none)
                          ~hash:false
    v} *)

type t =
  | Dpa of Dpa.Config.t  (** the full runtime, any configuration *)
  | Caching of { capacity : int }  (** software caching (blocking, LRU) *)
  | Blocking  (** naive blocking remote reads *)
  | Prefetch of { strip_size : int }  (** pipelining only *)

val dpa : ?strip_size:int -> ?agg_max:int -> unit -> t
val name : t -> string

type stats =
  | Dpa_stats of Dpa.Dpa_stats.t  (** from [Dpa] and [Prefetch] *)
  | Cache_stats of Caching.stats  (** from [Caching] and [Blocking] *)

val dpa_stats : stats -> Dpa.Dpa_stats.t option
val cache_stats : stats -> Caching.stats option

type items = {
  items :
    'c. (module Dpa.Access.S with type ctx = 'c) -> int -> ('c -> unit) array;
}
(** A phase's work items for any runtime: given the runtime's access
    module, the per-node item arrays (as [~items] of
    {!Dpa.Runtime.run_phase}). *)

val run_phase :
  t ->
  label:string ->
  engine:Dpa_sim.Engine.t ->
  heaps:Dpa_heap.Heap.cluster ->
  items ->
  Dpa_sim.Breakdown.t * stats
(** [run_phase t ~label ~engine ~heaps items] runs one parallel phase
    under [t], mapped to a runtime as in the table above. [label] names
    the phase for the observability layer; the caching runtimes emit no
    phase spans, so they ignore it. *)
