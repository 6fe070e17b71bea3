(** Runtime values of the mini IR. *)

type t = Num of float | Bool of bool | Ptr of Dpa_heap.Gptr.t

exception Eval_error of string

(** Each accessor raises {!Eval_error} ["where: what went wrong"] when the
    value has the wrong kind; [where] names the site, e.g. ["f: (x + 1)"]. *)

val num : string -> t -> float
val truthy : string -> t -> bool
val ptr : string -> t -> Dpa_heap.Gptr.t
val pp : Format.formatter -> t -> unit
