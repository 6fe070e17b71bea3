(** The access interface shared by the DPA runtime and every baseline
    runtime. Application force-computation phases are written once as
    functors over this signature, so the same application code runs under
    DPA, software caching, and blocking remote reads — as the paper's
    compiler-generated code would. *)

module type S = sig
  type ctx
  (** Per-node execution context. *)

  val node_id : ctx -> int

  val heaps : ctx -> Dpa_heap.Heap.cluster
  (** The cluster's stores — how a continuation resolves the fields of a
      delivered {!Dpa_heap.Heap.view} (e.g. [Heap.view_float (A.heaps
      ctx) view 0]). Reading objects other than delivered views must go
      through {!read}, which models the communication. *)

  val node : ctx -> Dpa_sim.Node.t
  (** The node the context runs on. Account [ns] of local application
      computation with [Dpa_sim.Node.charge_local (A.node ctx) ns]: an
      inlined clock update, where a call through the functor argument
      would not inline. Read it once per continuation, like {!heaps}. *)

  val read :
    ctx ->
    Dpa_heap.Gptr.t ->
    (ctx -> Dpa_heap.Heap.view -> unit) ->
    unit
  (** [read ctx p k] — dereference a global pointer and continue with [k].
      The continuation may run immediately (local or reused data) or later
      (suspended thread); the runtime decides. The delivered view is
      read-only and valid for the current phase; resolve its fields with
      {!Dpa_heap.Heap.view_float} and friends over [heaps ctx]. *)

  val accumulate : ctx -> Dpa_heap.Gptr.t -> idx:int -> float -> unit
  (** [accumulate ctx p ~idx v] — add [v] to float field [idx] of the
      object at [p]: a commutative remote reduction. Applied immediately
      for local objects; buffered, possibly combined, and delivered in
      bulk for remote ones. All updates of a phase are applied by the time
      the phase returns; ordering within a phase is unspecified (the
      [conc] contract). *)
end
