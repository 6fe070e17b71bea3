(** Runtime values of the mini IR: the arguments of a work item. *)

type t = Num of float | Bool of bool | Ptr of Dpa_heap.Gptr.t

exception Eval_error of string
(** A run-time error, ["where: what went wrong"]: [where] names the
    function and, for a value of the wrong kind, the site, e.g.
    ["f: (x + 1): expected a number, got a boolean"]. *)
