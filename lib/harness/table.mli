(** Plain-text tables in the style of the paper's time tables, and their
    JSON. Each {!column} declares its header, JSON key and typed value
    once; a table's text and its JSON both come from that declaration. *)

type t

val render : t -> string

type 'a kind
(** How a value prints and encodes. *)

val int : int kind
val float : (float -> string) -> float kind
(** [float show]: printed by [show], encoded at full precision. *)

val string : string kind
val bool : yes:string -> no:string -> bool kind
val option : 'a kind -> 'a option kind
(** ["-"] and JSON [null] for [None]. *)

type 'r column

val column : string -> string -> 'a kind -> ('r -> 'a) -> 'r column
(** [column header key kind f]: the cell [f row], printed under [header]
    and encoded under [key]. *)

val of_rows : 'r column list -> 'r list -> t

val json_rows : 'r column list -> 'r list -> Dpa_obs.Json.t
(** One object per row, its fields in column order. *)

val json : string -> 'r column list -> 'r list -> Dpa_obs.Json.t
(** [json title columns rows]: [{"title": title, "rows": json_rows}]. *)

val print :
  ?footer:string -> string -> 'r column list -> 'r list -> Dpa_obs.Json.t
(** [print title columns rows]: the title line, the table of [rows], the
    [footer] line if any, then a blank line; returns the table's {!json}. *)

val sec : float -> string
(** Seconds with paper-style precision ("118.02", "2.63"). *)

val speedup : float -> string
