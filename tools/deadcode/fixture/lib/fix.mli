(* One entry of each class; fixture.expected says who reaches which. *)

val product : int -> int
val perfbench : int
val perfbench_and_test : int
val test : int
val unreferenced : int
val aliased : int
val packed : int

module type S = sig
  val packed : int
end

module Make (_ : sig end) : sig
  val made : int
  val unmade : int
end

type r = { read : int; written : int }
