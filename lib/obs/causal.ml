(* Happens-before recording for one observed run. The graph lives beside
   the sink (Sink.set_causal) and is filled in by the producers — the DPA
   runtime records activities (scheduler quanta, owner service, update
   application, wakes, restart markers) and the message layer records
   flights and acks — connected by typed edges. The window accumulated
   since the last barrier is consumed by Critpath.at_barrier, which turns
   it into one critical-path instance per phase and clears it, so memory
   stays bounded by the largest single phase.

   Everything here is host-side bookkeeping: recording charges no
   simulated time, so a causally-traced run produces bit-identical
   simulation results to an untraced one. *)

type seg = Compute | Wire | Retransmit | Refetch | Other

type edge_kind = Seq | Send | Deliver | Ack | Wake | Retry | Refetch_start

type phase_meta = {
  pm_label : string;
  pm_wall_ns : int;
  pm_opt_actual : int;  (* bytes actually moved by the phase, all nodes *)
  pm_opt_bound : int;  (* surface/volume-style lower bound, all nodes *)
}

(* One analyzed phase window (produced by Critpath, stored here so the
   two modules need no mutual recursion). [i_segments] always sums to
   [i_path_ns] — the decomposition is exact by construction. *)
type instance = {
  i_label : string;
  i_wall_ns : int;
  i_path_ns : int;
  i_path_nodes : int;
  i_max_span_ns : int;  (* longest single on-path DAG node in the window *)
  i_dag_nodes : int;
  i_dag_edges : int;
  i_segments : (string * int) list;
  i_opt_actual : int;
  i_opt_bound : int;
}

(* The current window as chunked int columns: position [i] of the node
   columns is the [i]th node recorded since the last reset, position [j]
   of the edge columns the [j]th edge. [key] packs the id with the seg
   code and the on-path bit; [link] packs the child id with the edge kind.
   Resetting returns every chunk to its column's pool, so recording
   allocates only while a window outgrows the largest one before it. *)
type t = {
  mutable next_id : int;
  key : Chunked.t;  (* id lsl 4 lor seg lsl 1 lor on_path *)
  ts : Chunked.t;  (* sim-ns start *)
  dur : Chunked.t;
  parent : Chunked.t;
  link : Chunked.t;  (* child lsl 3 lor kind *)
  mutable cursor : int;  (* causal context: the running activity, -1 none *)
  mutable meta : phase_meta option;
  mutable results : instance list;  (* analyzed instances, reverse order *)
}

let create () =
  {
    next_id = 0;
    key = Chunked.create ();
    ts = Chunked.create ();
    dur = Chunked.create ();
    parent = Chunked.create ();
    link = Chunked.create ();
    cursor = -1;
    meta = None;
    results = [];
  }

(* Ids are allocated at span open and never reused, across every engine
   the process runs — the stability that lets a retransmission carry its
   original parent and lets streamed span_id/parent args resolve without
   per-engine scoping. *)
let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let seg_code = function
  | Compute -> 0
  | Wire -> 1
  | Retransmit -> 2
  | Refetch -> 3
  | Other -> 4

let kind_code = function
  | Seq -> 0
  | Send -> 1
  | Deliver -> 2
  | Ack -> 3
  | Wake -> 4
  | Retry -> 5
  | Refetch_start -> 6

let segs = [| Compute; Wire; Retransmit; Refetch; Other |]
let kinds = [| Seq; Send; Deliver; Ack; Wake; Retry; Refetch_start |]

(* [on_path] marks a node eligible as a critical-path member. Acks are
   recorded (the DAG answers "what acknowledged what") but excluded: they
   are pure bookkeeping that advances no node clock, so a late ack must
   not become the path tail and push the path past the phase wall. *)
let node ?(seg = Other) ?(on_path = true) t ~id ~ts ~dur =
  Chunked.push t.key
    ((id lsl 4) lor (seg_code seg lsl 1) lor Bool.to_int on_path);
  Chunked.push t.ts ts;
  Chunked.push t.dur dur

let edge t ~kind ~parent ~child =
  if parent >= 0 then begin
    Chunked.push t.parent parent;
    Chunked.push t.link ((child lsl 3) lor kind_code kind)
  end

let nodes t = Chunked.length t.key
let node_id t i = Chunked.get t.key i lsr 4
let node_seg t i = segs.((Chunked.get t.key i lsr 1) land 7)
let node_on_path t i = Chunked.get t.key i land 1 = 1
let node_ts t i = Chunked.get t.ts i
let node_dur t i = Chunked.get t.dur i
let edges t = Chunked.length t.link
let edge_kind t j = kinds.(Chunked.get t.link j land 7)
let edge_parent t j = Chunked.get t.parent j
let edge_child t j = Chunked.get t.link j lsr 3

let current t = t.cursor
let set_current t id = t.cursor <- id

let with_current t id f =
  let saved = t.cursor in
  t.cursor <- id;
  match f () with
  | v ->
    t.cursor <- saved;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.cursor <- saved;
    Printexc.raise_with_backtrace e bt

let set_meta t ~label ~wall_ns ~opt_actual ~opt_bound =
  t.meta <-
    Some
      {
        pm_label = label;
        pm_wall_ns = wall_ns;
        pm_opt_actual = opt_actual;
        pm_opt_bound = opt_bound;
      }

let meta t = t.meta

let window_size t = (nodes t, edges t)

let reset_window t =
  Chunked.clear t.key;
  Chunked.clear t.ts;
  Chunked.clear t.dur;
  Chunked.clear t.parent;
  Chunked.clear t.link;
  t.cursor <- -1;
  t.meta <- None

let add_result t inst = t.results <- inst :: t.results
let results t = List.rev t.results
