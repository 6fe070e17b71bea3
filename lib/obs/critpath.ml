(* Critical-path extraction over one phase window of the happens-before
   graph (Causal). The path is the chain that sets the phase wall clock:
   starting from the node with the latest end time, walk backwards always
   taking the latest-ending predecessor, then walk the chain forward with
   a cursor and charge every nanosecond of [end(tail) - start(head)] to
   exactly one bucket — a node's own duration to its segment class, the
   idle gap before a node to the class its incoming edge implies. The
   decomposition is exact by construction: the cursor only moves forward
   and finishes at the tail's end, so the buckets sum to the path length
   with no remainder. *)

let buckets =
  [
    "compute"; "align_wait"; "wire"; "owner_queue"; "retransmit"; "refetch";
    "other";
  ]

let bucket_of_seg = function
  | Causal.Compute -> "compute"
  | Causal.Wire -> "wire"
  | Causal.Retransmit -> "retransmit"
  | Causal.Refetch -> "refetch"
  | Causal.Other -> "other"

(* An idle gap crossed by an edge is time the child spent waiting for a
   reason the edge kind names: program order with nothing to run is the
   alignment wait (the runtime is parked until replies arrive), a
   flight-to-handler gap is queueing behind the destination's CPU, the
   stretch from an original send to its retransmission is the timeout
   wait, and the window between the last pre-crash activity and the
   restart marker is the crash outage. *)
let bucket_of_gap = function
  | Causal.Seq | Causal.Wake -> "align_wait"
  | Causal.Deliver -> "owner_queue"
  | Causal.Send | Causal.Ack -> "wire"
  | Causal.Retry -> "retransmit"
  | Causal.Refetch_start -> "refetch"

(* Window nodes are referred to by their recording index [i]. *)
let cend c i = Causal.node_ts c i + Causal.node_dur c i

(* Deterministic "later" ordering: end time, then id. *)
let later c a b =
  let ea = cend c a and eb = cend c b in
  if ea <> eb then ea > eb else Causal.node_id c a > Causal.node_id c b

(* The eligible (on-path) nodes are indexed by [id - base], [base] their
   smallest id: span ids are allocated densely, so the index is about as
   long as the window. [slot] maps an index to the earliest-recorded node
   with that id, or -1; an id outside [base, base + length) — a parent
   recorded in an earlier window, or an ineligible node — resolves to -1
   and its edges are skipped. *)
let analyze_window c (pm : Causal.phase_meta) =
  let nodes = Causal.nodes c in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to nodes - 1 do
    if Causal.node_on_path c i then begin
      lo := Int.min !lo (Causal.node_id c i);
      hi := Int.max !hi (Causal.node_id c i)
    end
  done;
  if !lo > !hi then None
  else begin
    let base = !lo and len = !hi - !lo + 1 in
    let slot = Array.make len (-1) in
    for i = nodes - 1 downto 0 do
      if Causal.node_on_path c i then slot.(Causal.node_id c i - base) <- i
    done;
    let find id = if id < base || id - base >= len then -1 else slot.(id - base) in
    (* Each eligible node's latest-ending predecessor and the kind of the
       edge from it, over edges between eligible endpoints; ties (one
       parent, several edges) keep the earliest-recorded edge. *)
    let pred = Array.make len (-1) in
    let pred_kind = Array.make len Causal.Seq in
    for j = 0 to Causal.edges c - 1 do
      let p = find (Causal.edge_parent c j) in
      let child = Causal.edge_child c j in
      if p >= 0 && find child >= 0 then begin
        let k = child - base in
        if pred.(k) < 0 || later c p pred.(k) then begin
          pred.(k) <- p;
          pred_kind.(k) <- Causal.edge_kind c j
        end
      end
    done;
    let tail = ref (-1) and max_span = ref 0 in
    for i = nodes - 1 downto 0 do
      if Causal.node_on_path c i then begin
        if !tail < 0 || later c i !tail then tail := i;
        max_span := Int.max !max_span (Causal.node_dur c i)
      end
    done;
    let tail = !tail in
    (* Backward walk from the tail through the latest-ending predecessors,
       building the path head first. The visited set guards against a
       recording bug creating a cycle — better a truncated path than a
       hung analyzer. *)
    let visited = Bytes.make len '\000' in
    let rec walk i path =
      let k = Causal.node_id c i - base in
      Bytes.set visited k '\001';
      let p = pred.(k) in
      if p >= 0 && Bytes.get visited (Causal.node_id c p - base) = '\000' then
        walk p (i :: path)
      else i :: path
    in
    let path = walk tail [] in
    let head = List.hd path in
    (* Forward cursor: the head's own span, then for every later element
       the idle gap its incoming edge crosses and its own span. *)
    let tally = Hashtbl.create 8 in
    let add b ns =
      Hashtbl.replace tally b
        (ns + Option.value ~default:0 (Hashtbl.find_opt tally b))
    in
    let cursor = ref (Causal.node_ts c head) in
    List.iter
      (fun i ->
        let ts = Causal.node_ts c i in
        if i <> head && ts > !cursor then begin
          add (bucket_of_gap pred_kind.(Causal.node_id c i - base)) (ts - !cursor);
          cursor := ts
        end;
        let e = cend c i in
        if e > !cursor then begin
          add (bucket_of_seg (Causal.node_seg c i)) (e - Int.max !cursor ts);
          cursor := e
        end)
      path;
    Some
      {
        Causal.i_label = pm.Causal.pm_label;
        i_wall_ns = pm.Causal.pm_wall_ns;
        i_path_ns = cend c tail - Causal.node_ts c head;
        i_path_nodes = List.length path;
        i_max_span_ns = !max_span;
        i_dag_nodes = nodes;
        i_dag_edges = Causal.edges c;
        i_segments =
          List.map
            (fun b -> (b, Option.value ~default:0 (Hashtbl.find_opt tally b)))
            buckets;
        i_opt_actual = pm.Causal.pm_opt_actual;
        i_opt_bound = pm.Causal.pm_opt_bound;
      }
  end

(* Consume the window at an engine barrier. Only labeled windows (the DPA
   runtime's phases set metadata) are analyzed; a window recorded by an
   unlabeled producer is discarded — its flights have no activity chain
   to ground the path at the phase start, so no invariant would hold. *)
let at_barrier c =
  (match Causal.meta c with
  | Some pm -> (
    match analyze_window c pm with
    | Some inst -> Causal.add_result c inst
    | None -> ())
  | None -> ());
  Causal.reset_window c

let ratio ~actual ~bound =
  if bound <= 0 then if actual = 0 then 1.0 else infinity
  else float_of_int actual /. float_of_int bound

let instance_json (i : Causal.instance) =
  Json.Obj
    [
      ("label", Json.Str i.Causal.i_label);
      ("wall_ns", Json.Int i.Causal.i_wall_ns);
      ("path_ns", Json.Int i.Causal.i_path_ns);
      ("path_nodes", Json.Int i.Causal.i_path_nodes);
      ("max_span_ns", Json.Int i.Causal.i_max_span_ns);
      ("dag_nodes", Json.Int i.Causal.i_dag_nodes);
      ("dag_edges", Json.Int i.Causal.i_dag_edges);
      ( "segments",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) i.Causal.i_segments)
      );
      ("opt_actual_bytes", Json.Int i.Causal.i_opt_actual);
      ("opt_bound_bytes", Json.Int i.Causal.i_opt_bound);
      ( "opt_ratio",
        Json.Float (ratio ~actual:i.Causal.i_opt_actual ~bound:i.Causal.i_opt_bound)
      );
    ]

let report_json c =
  let insts = Causal.results c in
  (* Aggregate by label: repeated phases (multi-step simulations) fold
     into one summary row per label. *)
  let order = ref [] in
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (i : Causal.instance) ->
      let key = i.Causal.i_label in
      let acc =
        match Hashtbl.find_opt totals key with
        | Some a -> a
        | None ->
          let a = Hashtbl.create 8 in
          Hashtbl.replace totals key a;
          order := key :: !order;
          a
      in
      let bump k v =
        Hashtbl.replace acc k (v + Option.value ~default:0 (Hashtbl.find_opt acc k))
      in
      bump "instances" 1;
      bump "wall_ns" i.Causal.i_wall_ns;
      bump "path_ns" i.Causal.i_path_ns;
      bump "opt_actual_bytes" i.Causal.i_opt_actual;
      bump "opt_bound_bytes" i.Causal.i_opt_bound;
      List.iter (fun (b, ns) -> bump ("seg_" ^ b) ns) i.Causal.i_segments)
    insts;
  let summary =
    List.rev_map
      (fun key ->
        let acc = Hashtbl.find totals key in
        let g k = Option.value ~default:0 (Hashtbl.find_opt acc k) in
        ( key,
          Json.Obj
            ([
               ("instances", Json.Int (g "instances"));
               ("wall_ns", Json.Int (g "wall_ns"));
               ("path_ns", Json.Int (g "path_ns"));
               ("opt_actual_bytes", Json.Int (g "opt_actual_bytes"));
               ("opt_bound_bytes", Json.Int (g "opt_bound_bytes"));
               ( "opt_ratio",
                 Json.Float
                   (ratio ~actual:(g "opt_actual_bytes")
                      ~bound:(g "opt_bound_bytes")) );
             ]
            @ List.map (fun b -> ("seg_" ^ b, Json.Int (g ("seg_" ^ b)))) buckets
            ) ))
      !order
  in
  Json.Obj
    [
      ("phases", Json.List (List.map instance_json insts));
      ("summary", Json.Obj summary);
      ("nphases", Json.Int (List.length insts));
    ]
