(** A small IR for ICC++-style concurrent pointer programs: enough to
    express the paper's examples (list and tree traversals over global
    pointer-based data structures inside [conc] loops) and to demonstrate
    the thread-partitioning algorithm of §4.

    Programs are first-order: a set of functions, calls have no return
    value, and results flow through named global accumulators (commutative
    reductions, which is what [conc] iterations are allowed to share).
    Pointer variables carry coarse alias classes; dereferences of
    global-class pointers are the "touch" points where the partitioner
    splits threads. *)

type alias_class = Local | Global of int

type binop = Add | Sub | Mul | Div | Lt | Le | Eq | And | Or

type unop = Neg | Not

type expr =
  | Num of float
  | Var of string
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Is_nil of expr

type stmt =
  | Let of string * expr  (** bind or update a numeric/boolean local *)
  | Load_field of string * string * int
      (** [Load_field (dst, p, i)]: [dst = p->floats\[i\]] — a touch of [p] *)
  | Load_ptr of string * string * int
      (** [Load_ptr (dst, p, i)]: [dst = p->ptrs\[i\]] — a touch of [p];
          [dst] joins [p]'s alias class *)
  | Accum of string * expr  (** global accumulator += value *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list  (** body must be touch-free *)
  | Call of string * expr list  (** possibly recursive; pointer args allowed *)
  | Conc of stmt list
      (** block-level concurrency annotation (ICC++ [conc]): the statements
          may interleave; execution joins before the block completes *)

type param = { pname : string; pclass : alias_class option }
(** [pclass = None] for numeric parameters. *)

type func = { fname : string; params : param list; body : stmt list }

type program = { funcs : func list }

exception Illegal of string

val func : program -> string -> func
(** Look up a function. Raises {!Illegal} if absent. *)

val validate : program -> unit
(** Check the static restrictions: known call targets with matching arity,
    touch-free [While] bodies, and touches only on pointer-class variables.
    Raises {!Illegal} otherwise. *)

val illegal : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Illegal} with a formatted message. *)
