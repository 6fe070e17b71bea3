(** The fault-matrix driver behind experiments A11–A15. A matrix is a grid
    of workloads × runtime configurations × fault schedules with one
    contract per cell: the faulted run reproduces the workload's fault-free
    reference bit for bit. Each matrix is a declaration ({!t}); this module
    runs it, prints it, encodes it as JSON and checks it. *)

(** {1 Runs} *)

type plan
(** The fault plan one run executes under: a parsed schedule (or none)
    and the matrix's fault seed. *)

val engine : ?adaptive_rto:bool -> nodes:int -> plan -> Dpa_sim.Engine.t
(** A fresh engine that owns [plan]: a fault-free plan stays fault-free
    even when a process-global [--faults] default is installed. *)

type 'r outcome = {
  result : 'r;
      (** the bit-identity witness, compared with [=] against the
          reference run's *)
  engine : Dpa_sim.Engine.t;  (** the run's engine, read for counters *)
  time_s : float;  (** modelled phase time *)
  stats : Dpa.Dpa_stats.t;  (** the run's runtime stats *)
  extra : (string * int) list;
      (** workload-specific counters, appended to the standard ones *)
}

(** {1 Declarations} *)

type schedule

val fixed : string -> string -> schedule
(** [fixed label spec]: the plan [spec] in {!Dpa_sim.Fault.spec_of_string}
    syntax, or ["off"] for none. *)

val derived : string -> (int -> string) -> schedule
(** [derived label f]: the plan [f elapsed], where [elapsed] is the
    workload's fault-free reference duration in ns. Workload phase lengths
    differ by orders of magnitude; deriving crash windows from each one's
    own duration makes every crash land mid-phase. *)

val crash_ns : int -> int
(** The down time of a derived crash: an eighth of the reference
    duration, at least 1 µs — long enough that peers retransmit into the
    fence, short enough that the phase completes. *)

val crash_knobs : int -> string
(** One crash per node inside the first half of the reference duration,
    each down for {!crash_ns}. *)

val crashing : string -> string -> schedule
(** [crashing label prefix]: [prefix] (a spec, or [""]) plus
    {!crash_knobs}. *)

type workload

val workload :
  string ->
  (string * schedule list) list ->
  (config:string -> plan -> 'r outcome) ->
  workload
(** [workload name grid run]: [grid] lists each configuration with the
    schedules it runs under, in print order. The reference is [run] on the
    first configuration without faults; that configuration's ["off"] cell
    reuses it. *)

type cell = {
  workload : string;
  config : string;
  schedule : string;
  time_s : float;  (** modelled phase time *)
  counters : (string * int) list;
      (** in order: [bytes_sent] (wire bytes injected by every node),
          [overhead_bytes] (retransmitted payload plus acks),
          [retransmits], [dups_suppressed], [fenced], [corrupt_dropped]
          (from {!Dpa_msg.Am.stats}); [drops] (losses, outage and crash
          silences, from the engine's {!Dpa_sim.Fault} plan);
          [rt_retries], [crashes], [crash_refetches], [wal_truncated],
          [wal_repaired], [reissues] (update plus routed batch re-issues,
          from {!Dpa.Dpa_stats}); then the workload's [extra] counters *)
  bit_identical : bool;  (** result equal to the fault-free reference *)
}

val counter : cell -> string -> int
(** [Invalid_argument] when the cell has no such counter. *)

(** The standard columns, each a {!Table.column} over cells. *)

val config : string -> cell Table.column
(** [config header]: the configuration label (JSON ["config"]). *)

val schedule : string -> cell Table.column
(** [schedule header]: the schedule label (JSON ["schedule"]). *)

val time : cell Table.column
(** ["TIME(s)"] (JSON ["time_s"]). *)

val count : string -> string -> cell Table.column
(** [count header key]: the counter [key]. *)

val metric :
  string ->
  string ->
  (float -> string) ->
  (cell -> float) ->
  cell Table.column
(** [metric header key show f]: a value derived from the cell, printed
    with [show] and encoded as a JSON float under [key]. *)

val result : string -> cell Table.column
(** [result header]: ["bit-identical"] or ["DIVERGED"] (JSON
    ["bit_identical"]). *)

type t = {
  name : string;  (** the experiment id failure messages start with *)
  title : string;  (** printed above the tables *)
  seed : int;  (** fault-plan seed of every run *)
  workloads : workload list;
      (** one table each, headed by its name when there are several *)
  columns : cell Table.column list;
  summary : (cell list -> string) option;  (** a line after the tables *)
  witnesses : (string * (cell list -> bool)) list;
      (** properties that must hold for the faults to have been exercised
          at all, e.g. that crash-restarts actually executed *)
}

(** {1 Driving} *)

val run : t -> cell list
(** Every cell, workload by workload, in grid order. [Invalid_argument]
    on a malformed schedule spec. *)

val print : t -> cell list -> unit

val json : t -> cell list -> Dpa_obs.Json.t
(** [{"rows": [{"workload": ..., "cells": [{column fields}]}]}]. *)

val failures : t -> cell list -> string list
(** One message per diverged cell, naming the matrix, workload,
    configuration and schedule, then one per witness that does not hold.
    Empty when the matrix passes. *)

val total : string -> cell list -> int
(** Sum of one counter over the cells. *)

val nonzero : string -> cell list -> bool
(** [total key cells > 0]: the usual witness. *)

val diverged : cell list -> int
