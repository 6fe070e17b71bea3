(** Executes a validated program against any runtime's access interface,
    realizing at run time the thread structure that {!Partition} describes
    statically.

    [compile] decides once what does not depend on the data: every
    variable of a function becomes a register, every expression code that
    writes its result into a register, every statement list a chain of
    prebuilt continuation-passing code, every call its callee, and every
    dereference site its hoisting companions — the other variables of the
    same global alias class, in name order. Run-time errors
    ({!Value.Eval_error}) name the function and the site.

    A frame holds typed registers: a tag per register (unbound, number,
    boolean or pointer) and its value, unboxed in a [float array] for a
    number or a boolean (as 0 or 1) and in an [int] column for a pointer.
    Registers [0, nvars) are the function's variables; above them lie the
    temporaries of expression evaluation, one per nesting depth of an
    operand that is not a variable (a variable operand is read in place).
    No expression allocates: each consumer checks its operand's tag, in
    the order the operands run, and reads the value inline. The frame
    also holds, per variable, the object fetched through it, its read
    continuation and the acquire site its read in flight belongs to; one
    join counter per sequential chain (the body and each [conc] arm); and
    the caller's frame and the code the caller goes on with.

    At run time nothing allocates once a function's frames exist. A
    dereference of an unfetched pointer suspends into [A.read] together
    with those companions that are unfetched, non-nil pointers, issued as
    one batch so they share the runtime's aggregation. Each read passes
    its variable's continuation, built on the variable's first read in
    the frame and kept with it; only a variable whose continuation is
    still in flight (a [conc] arm re-reading a companion another arm
    hoisted) reads through a closure of its own. When a body finishes,
    every read and arm of its frame has joined, so the frame returns to
    its function's free list and a later call reuses it, its registers
    unbound and nothing fetched. Everything else runs inline in the
    current thread.

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
end
