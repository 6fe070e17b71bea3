(** Configuration of the DPA runtime: the paper's tuning knobs.

    [strip_size] is the static strip-mining bound on top-level concurrent
    loops (the paper's "DPA (50)" / "DPA (300)" notation). [agg_max] bounds
    how many read requests are packed per message before an eager flush.
    [reuse] enables the alignment buffer D and request merging in the
    pointer map M — the data-reuse ("tiling") half of DPA; with it off the
    runtime still pipelines and aggregates but refetches every object.

    [auto] replaces the static strip bound with a closed-loop controller:
    the runtime starts at [strip_size] and, at each strip boundary, doubles
    or halves the next strip within [min_strip, max_strip], steering the
    alignment buffer's closing occupancy into the band
    [(d_target/2, d_target]] (see {!Runtime}). The controller reads only
    quantities the runtime already maintains and charges no simulated time,
    so a run whose bounds pin the size ([min_strip = max_strip =
    strip_size]) is bit-identical to the static configuration. *)

type auto_strip = {
  min_strip : int;  (** inclusive lower bound on the strip size *)
  max_strip : int;  (** inclusive upper bound on the strip size *)
  d_target : int;
      (** alignment-buffer occupancy ceiling the controller steers under *)
}

type route =
  | Off  (** flat aggregation: every update batch goes straight to its owner *)
  | All_dsts
      (** every remote destination's updates are held for the whole phase,
          combined, and sent through the binomial reduction tree rooted at
          the owner ({!Dpa_msg.Route}) *)
  | Hot of int list
      (** only the listed destinations are routed; everything else stays on
          the flat path — the fan-in case, where one owner receives
          contributions from all other nodes *)

type t = {
  name : string;
  strip_size : int;
  agg_max : int;
  reuse : bool;
  auto : auto_strip option;
  route : route;
      (** tree-routed update aggregation. Requires [reuse] (the combining
          map is what makes the phase-long hold window profitable). Relay
          state is volatile, so under crash fault plans every routed batch
          stays under its origin's custody — WAL-journaled and held until
          the final owner's end-to-end ack — and crashes only cost
          straight-line re-issues the owner journal dedups. Fixed-point
          accumulation grids make en-route combining order-independent, so
          any [route] setting is bit-identical in results to [Off], under
          every fault schedule. *)
}

val dpa : ?strip_size:int -> ?agg_max:int -> ?route:route -> unit -> t
(** Full DPA. Defaults: strip 50 (the paper's headline setting), agg 64,
    route off. *)

val dpa_auto :
  ?strip_size:int ->
  ?min_strip:int ->
  ?max_strip:int ->
  ?d_target:int ->
  ?agg_max:int ->
  ?route:route ->
  unit ->
  t
(** Full DPA with the adaptive strip-size controller. Defaults: initial
    strip 50, bounds [10, 1000], D target 2048, agg 64, route off. Raises
    [Invalid_argument] if [strip_size] lies outside the bounds. *)

val pipeline_only : ?strip_size:int -> unit -> t
(** Non-blocking threads with message pipelining but no aggregation and no
    reuse: each remote read is its own message. (This is also how the greedy
    prefetching of related work behaves.) *)

val pipeline_aggregate : ?strip_size:int -> ?agg_max:int -> unit -> t
(** Pipelining plus aggregation, still no reuse. *)
