(** Executes a validated program against any runtime's access interface,
    realizing at run time the thread structure that {!Partition} describes
    statically.

    [compile] decides once what does not depend on the data: every
    variable of a function becomes a frame slot, every statement list a
    chain of prebuilt continuation-passing code, every call its callee, and
    every dereference site its hoisting companions — the other variables of
    the same global alias class, in name order. Run-time errors
    ({!Value.Eval_error}) name the function and the site.

    At run time each activation allocates one frame (values, fetched views,
    join counters and the caller's continuation), and a dereference of an
    unfetched pointer suspends into [A.read] together with those companions
    that are unfetched, non-nil pointers, issued as one batch so they share
    the runtime's aggregation. Everything else runs inline in the current
    thread.

    Fetched objects are kept per activation ("availability"), so repeated
    accesses through the same pointer in one activation cost nothing extra
    — the access-hoisting effect. *)

module Make (A : Dpa.Access.S) : sig
  type compiled

  val compile :
    ?stmt_cost_ns:int -> ?accum_grid:float -> Ast.program -> compiled
  (** Validates (structure and alias classes) and compiles. [stmt_cost_ns]
      (default 40) is the simulated cost charged per executed statement.
      [accum_grid] (default: none, i.e. exact addition in program order)
      snaps every value added to a global accumulator onto the given grid
      (see {!Dpa_util.Det}): as long as the running sum stays within the
      grid's exactness bound, the final accumulator value becomes
      independent of the order work items complete in — the property the
      chaos sweeps assert when faults reshuffle message arrivals. *)

  val item :
    compiled -> entry:string -> args:Value.t list -> A.ctx -> unit
  (** A work item: one call of [entry] with [args]. Pointer arguments must
      be passed as [Value.Ptr]. *)

  val accumulator : compiled -> string -> float
  (** Current value of a global accumulator (0 if never touched). *)

  val accumulators : compiled -> (string * float) list
  val reset : compiled -> unit
end
