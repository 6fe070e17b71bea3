(** Growable arrays (OCaml 5.1 predates [Stdlib.Dynarray]). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val add : 'a t -> 'a -> int
(** [add t x] appends [x] and returns its index. *)

val get : 'a t -> int -> 'a
val iter : ('a -> unit) -> 'a t -> unit
