(** Metrics registry: named counters and log-scale histograms.

    Instruments are created (or retrieved) by name, so contexts on different
    simulated nodes that ask for the same name share one instrument — phase
    metrics aggregate across the whole machine. All values are integers in
    the unit the producer chose (sim-ns, entries, bytes); histograms bucket
    by powers of two, which suits the heavy-tailed distributions the paper's
    evaluation cares about (batch sizes, wait latencies). *)

type t
(** A registry. *)

val create : unit -> t

type counter

val counter : t -> string -> counter
(** Get or create. Raises [Invalid_argument] if the name is already bound to
    a different instrument kind. *)

val add : counter -> int -> unit
val counter_value : counter -> int

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> int -> unit
(** Negative observations are clamped to 0. *)

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : float;
  p90 : float;
  p99 : float;
}

val summary : histogram -> summary
(** Zero summary when the histogram is empty. *)

val percentile : histogram -> float -> float
(** [percentile h q] for [q] in [0,1]: linear interpolation inside the
    power-of-two bucket holding the target rank, clamped to the exact
    observed min/max. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {}, "histograms": {name: {count, sum,
    min, max, p50, p90, p99, buckets: [{lo, hi, count}]}}}], names sorted. *)

val report : t -> string
(** Human-readable rendering of the same data. *)
