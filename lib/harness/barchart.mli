(** ASCII stacked bars for the paper's breakdown figures: each bar shows
    local computation ('#'), communication overhead ('+') and idle time
    ('.') as fractions of total node-time, with the elapsed time and
    speedup printed alongside. *)

type bar = {
  label : string;
  local : float;  (** fractions of node-time; idle is the remainder *)
  comm : float;
  elapsed_s : float;
  speedup : float option;
}

val of_breakdown :
  label:string ->
  ?speedup:float ->
  Dpa_sim.Breakdown.t ->
  bar

val render : ?width:int -> bar list -> string
