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

(* The current window as growable parallel arrays: entry [i] of each node
   column is the [i]th node recorded since the last reset, for
   [i < nodes]; the edge columns likewise. Recording a node or an edge
   writes a few array slots and allocates nothing until a column has to
   grow. *)
type window = {
  mutable nodes : int;
  mutable id : int array;
  mutable name : string array;
  mutable node : int array;  (* simulated node id *)
  mutable ts : int array;  (* sim-ns start *)
  mutable dur : int array;
  mutable seg : seg array;
  mutable on_path : bool array;
      (* eligible as a critical-path member. Acks are recorded (the DAG
         answers "what acknowledged what") but excluded: they are pure
         bookkeeping that advances no node clock, so a late ack must not
         become the path tail and push the path past the phase wall. *)
  mutable edges : int;
  mutable kind : edge_kind array;
  mutable parent : int array;
  mutable child : int array;
}

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

type t = {
  mutable next_id : int;
  window : window;  (* columns keep their capacity across resets *)
  mutable cursor : int;  (* causal context: the running activity, -1 none *)
  mutable meta : phase_meta option;
  mutable results : instance list;  (* analyzed instances, reverse order *)
}

let create () =
  {
    next_id = 0;
    window =
      {
        nodes = 0;
        id = [||];
        name = [||];
        node = [||];
        ts = [||];
        dur = [||];
        seg = [||];
        on_path = [||];
        edges = 0;
        kind = [||];
        parent = [||];
        child = [||];
      };
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

let grow a len fill =
  let b = Array.make (max 1024 (2 * len)) fill in
  Array.blit a 0 b 0 len;
  b

let grow_nodes w =
  let n = w.nodes in
  w.id <- grow w.id n 0;
  w.name <- grow w.name n "";
  w.node <- grow w.node n 0;
  w.ts <- grow w.ts n 0;
  w.dur <- grow w.dur n 0;
  w.seg <- grow w.seg n Other;
  w.on_path <- grow w.on_path n false

let grow_edges w =
  let n = w.edges in
  w.kind <- grow w.kind n Seq;
  w.parent <- grow w.parent n 0;
  w.child <- grow w.child n 0

let node ?(seg = Other) ?(on_path = true) t ~id ~name ~node ~ts ~dur =
  let w = t.window in
  let i = w.nodes in
  if i = Array.length w.id then grow_nodes w;
  w.id.(i) <- id;
  w.name.(i) <- name;
  w.node.(i) <- node;
  w.ts.(i) <- ts;
  w.dur.(i) <- dur;
  w.seg.(i) <- seg;
  w.on_path.(i) <- on_path;
  w.nodes <- i + 1

let edge t ~kind ~parent ~child =
  if parent >= 0 then begin
    let w = t.window in
    let j = w.edges in
    if j = Array.length w.kind then grow_edges w;
    w.kind.(j) <- kind;
    w.parent.(j) <- parent;
    w.child.(j) <- child;
    w.edges <- j + 1
  end

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

let window t = t.window
let window_size t = (t.window.nodes, t.window.edges)

let reset_window t =
  t.window.nodes <- 0;
  t.window.edges <- 0;
  t.cursor <- -1;
  t.meta <- None

let add_result t inst = t.results <- inst :: t.results
let results t = List.rev t.results
