(** Plain-text tables in the style of the paper's time tables. *)

type t

val make : header:string list -> t
val add_row : t -> string list -> unit
val render : t -> string

type 'r column = string * ('r -> string)
(** A header and how to render one row's cell under it. *)

val of_rows : 'r column list -> 'r list -> t

val print : ?footer:string -> string -> 'r column list -> 'r list -> unit
(** [print title columns rows]: the title line, the table of [rows], the
    [footer] line if any, then a blank line. *)

val sec : float -> string
(** Seconds with paper-style precision ("118.02", "2.63"). *)

val sec_ns : int -> string
val speedup : float -> string
val opt : ('a -> string) -> 'a option -> string
(** "-" for [None]. *)
