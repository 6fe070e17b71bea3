(** Happens-before graph over one observed run.

    A [Causal.t] rides on the sink ({!Sink.set_causal}); when present, the
    producers record a DAG per phase window: DAG nodes are scheduler quanta,
    owner-service and update-apply handlers, wake markers, restart markers,
    message flights and acks; edges carry the causal relation between them.
    A DAG node is its id, start, duration, weight class and path
    eligibility — the simulated node and the activity name live only in
    the sink's events.
    {!Critpath.at_barrier} consumes the window at every engine barrier and
    appends one analyzed {!instance} per labeled phase.

    Recording is host-side only — no simulated time is charged — so a
    causally-traced run is bit-identical (forces, stats, clocks) to an
    untraced one. *)

(** Weight class of a DAG node, which becomes the critical-path bucket its
    own duration is charged to. *)
type seg =
  | Compute  (** CPU activity: quanta, owner service, update apply *)
  | Wire  (** first-attempt message flight *)
  | Retransmit  (** retransmitted flight, or a timer-driven re-issue marker *)
  | Refetch  (** crash-restart marker: the re-fetch walk *)
  | Other  (** zero-duration markers (wakes) *)

(** Edge label; when the critical path crosses an edge, any idle gap it
    spans is charged to the bucket the kind implies (see DESIGN.md §14). *)
type edge_kind =
  | Seq  (** program order between two activities on one node *)
  | Send  (** sending activity -> first-attempt flight *)
  | Deliver  (** flight -> the handler activity it triggered *)
  | Ack  (** delivered flight -> its NIC ack flight *)
  | Wake  (** wake marker -> the quantum that dispatched the woken threads *)
  | Retry  (** original causal parent -> a retransmission / re-issue *)
  | Refetch_start  (** last pre-crash activity -> the restart marker *)

type phase_meta = {
  pm_label : string;
  pm_wall_ns : int;
  pm_opt_actual : int;
  pm_opt_bound : int;
}

type instance = {
  i_label : string;
  i_wall_ns : int;
  i_path_ns : int;
  i_path_nodes : int;
  i_max_span_ns : int;
  i_dag_nodes : int;
  i_dag_edges : int;
  i_segments : (string * int) list;
      (** bucket -> sim-ns; always sums to [i_path_ns] exactly *)
  i_opt_actual : int;
  i_opt_bound : int;
}
(** One analyzed phase window; produced by {!Critpath.at_barrier}. *)

type t

val create : unit -> t

val fresh : t -> int
(** Allocate the next span id. Monotone for the life of the value and
    never reset — id stability is what lets a retransmission keep its
    original causal parent across attempts and incarnations. *)

val node : ?seg:seg -> ?on_path:bool -> t -> id:int -> ts:int -> dur:int -> unit
(** Record a DAG node in the current window ([seg] defaults to [Other],
    [on_path] to [true]; acks are recorded but path-ineligible: they
    advance no clock, so a late ack must not become the path tail). The id
    must come from {!fresh}. *)

val edge : t -> kind:edge_kind -> parent:int -> child:int -> unit
(** Record [parent -> child]. No-op when [parent < 0] (no causal context),
    so producers can pass the cursor unconditionally. *)

val current : t -> int
(** The causal cursor: id of the activity currently executing on behalf of
    the single-threaded simulation, or [-1]. Message sends read it to
    parent their flights; handlers run under the flight's id. *)

val set_current : t -> int -> unit

val with_current : t -> int -> (unit -> 'a) -> 'a
(** Run with the cursor set to [id], restoring the previous value even on
    exceptions. Allocates nothing beyond what [f] does. *)

val set_meta :
  t -> label:string -> wall_ns:int -> opt_actual:int -> opt_bound:int -> unit
(** Phase metadata, set by [Runtime.run_phase_labeled] just before its
    closing barrier; consumed (and cleared) by {!Critpath.at_barrier}.
    Windows without metadata (e.g. baseline runtimes that never label a
    phase) are discarded unanalyzed. *)

val meta : t -> phase_meta option

(** {2 The current window}

    Nodes and edges recorded since the last {!reset_window}, in recording
    order, held in chunked int columns ({!Chunked}) whose chunks are
    pooled across resets. Node [i] is valid for [0 <= i < nodes t], edge
    [j] for [0 <= j < edges t]. *)

val nodes : t -> int
val node_id : t -> int -> int
val node_ts : t -> int -> int  (** sim-ns start *)

val node_dur : t -> int -> int
val node_seg : t -> int -> seg
val node_on_path : t -> int -> bool
val edges : t -> int
val edge_kind : t -> int -> edge_kind
val edge_parent : t -> int -> int
val edge_child : t -> int -> int

val window_size : t -> int * int
(** [(nodes, edges)] recorded in the current window. *)

val reset_window : t -> unit
(** Drop the window's nodes, edges, cursor and metadata; analyzed results
    and the id allocator survive. *)

val add_result : t -> instance -> unit

val results : t -> instance list
(** Analyzed instances, oldest first. *)
