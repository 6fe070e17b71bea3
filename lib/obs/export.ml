let arg_json = function
  | Sink.Int i -> Json.Int i
  | Sink.Str s -> Json.Str s

let args_json args = Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)

(* Chrome's trace viewer expects microseconds; sim time is integral ns. *)
let ts_us ns = Json.Float (float_of_int ns /. 1000.)

let chrome_event (ev : Sink.event) =
  let common =
    [
      ("name", Json.Str ev.Sink.name);
      ("cat", Json.Str ev.Sink.cat);
      ("ts", ts_us ev.Sink.ts);
      ("pid", Json.Int 0);
      ("tid", Json.Int ev.Sink.node);
    ]
  in
  match ev.Sink.kind with
  | Sink.Span ->
    Json.Obj
      (common
      @ [
          ("ph", Json.Str "X");
          ("dur", ts_us ev.Sink.dur);
          ("args", args_json ev.Sink.args);
        ])
  | Sink.Instant when ev.Sink.cat = "flow" ->
    (* Message flights render as Chrome flow events: a "flow_s" instant at
       wire-out becomes the flow start ("s") on the sender track, the
       matching "flow_f" at delivery the finish ("f") on the receiver
       track, bound by the flight's (src,dst,seq,incarnation) id — the
       viewer draws the arrow between the two node tracks. [bp:"e"] binds
       the finish to its enclosing slice so the arrow lands on the handler
       activity. *)
    let fid =
      match List.assoc_opt "id" ev.Sink.args with
      | Some (Sink.Str s) -> s
      | _ -> ""
    in
    let ph, bind =
      if ev.Sink.name = "flow_s" then ("s", [])
      else ("f", [ ("bp", Json.Str "e") ])
    in
    Json.Obj
      ([
         ("name", Json.Str "flight");
         ("cat", Json.Str "flow");
         ("ts", ts_us ev.Sink.ts);
         ("pid", Json.Int 0);
         ("tid", Json.Int ev.Sink.node);
         ("ph", Json.Str ph);
         ("id", Json.Str fid);
       ]
      @ bind
      @ [ ("args", args_json ev.Sink.args) ])
  | Sink.Instant ->
    Json.Obj
      (common
      @ [
          ("ph", Json.Str "i");
          ("s", Json.Str "t");
          ("args", args_json ev.Sink.args);
        ])
  | Sink.Counter ->
    Json.Obj
      (common @ [ ("ph", Json.Str "C"); ("args", args_json ev.Sink.args) ])

let node_ids events =
  List.sort_uniq compare (List.map (fun e -> e.Sink.node) events)

let chrome_trace sink =
  let events = Sink.events sink in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[";
  let first = ref true in
  let emit j =
    if !first then first := false else Buffer.add_char buf ',';
    Json.to_buffer buf j
  in
  List.iter
    (fun node ->
      emit
        (Json.Obj
           [
             ("name", Json.Str "thread_name");
             ("ph", Json.Str "M");
             ("pid", Json.Int 0);
             ("tid", Json.Int node);
             ( "args",
               Json.Obj [ ("name", Json.Str (Printf.sprintf "node %d" node)) ]
             );
           ]))
    (node_ids events);
  List.iter (fun ev -> emit (chrome_event ev)) events;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\",\"otherData\":";
  Json.to_buffer buf
    (Json.Obj
       [
         ("events_emitted", Json.Int (Sink.emitted sink));
         ("events_dropped", Json.Int (Sink.dropped sink));
       ]);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* The one JSONL serializer: a row's fields, in a fixed order, read
   through a cursor and written straight into [buf] — the byte-for-byte
   rendering of the equivalent [Json.Obj] tree, without building it or the
   event record. What depends only on the row's (label, kind), its
   [{"kind":…,"name":…,"cat":…,"node":] head, and each argument key's
   ["key":] are rendered once and cached by interned id. Interned ids are
   per sink, so a renderer serves the one sink its cursor reads. *)
type renderer = {
  cursor : Sink.Cursor.t;
  mutable heads : string array;  (* by [Cursor.head]; "" until rendered *)
  mutable keys : string array;  (* by key id; "" until rendered *)
}

let renderer sink =
  { cursor = Sink.Cursor.create sink; heads = [||]; keys = [||] }

let grow a id =
  let b = Array.make (Int.max (id + 1) (2 * Array.length a)) "" in
  Array.blit a 0 b 0 (Array.length a);
  b

let render_head r =
  let c = r.cursor in
  let sink = Sink.Cursor.sink c and l = Sink.Cursor.label c in
  let b = Buffer.create 64 in
  Buffer.add_string b
    (match Sink.Cursor.kind c with
    | Sink.Span -> {|{"kind":"span","name":|}
    | Sink.Instant -> {|{"kind":"instant","name":|}
    | Sink.Counter -> {|{"kind":"counter","name":|});
  Json.escape_to b (Sink.label_name sink l);
  Buffer.add_string b {|,"cat":|};
  Json.escape_to b (Sink.label_cat sink l);
  Buffer.add_string b {|,"node":|};
  Buffer.contents b

let head r =
  let h = Sink.Cursor.head r.cursor in
  if h >= Array.length r.heads then r.heads <- grow r.heads h;
  let s = r.heads.(h) in
  if String.length s > 0 then s
  else begin
    let s = render_head r in
    r.heads.(h) <- s;
    s
  end

let key r j =
  let id = Sink.Cursor.arg_key r.cursor j in
  if id >= Array.length r.keys then r.keys <- grow r.keys id;
  let s = r.keys.(id) in
  if String.length s > 0 then s
  else begin
    let b = Buffer.create 32 in
    Json.escape_to b (Sink.key_name (Sink.Cursor.sink r.cursor) id);
    Buffer.add_char b ':';
    let s = Buffer.contents b in
    r.keys.(id) <- s;
    s
  end

let jsonl_to buf r row =
  let c = r.cursor in
  Sink.Cursor.seek c row;
  Buffer.add_string buf (head r);
  Json.int_to buf (Sink.Cursor.node c);
  Buffer.add_string buf {|,"ts":|};
  Json.int_to buf (Sink.Cursor.ts c);
  Buffer.add_string buf {|,"dur":|};
  Json.int_to buf (Sink.Cursor.dur c);
  Buffer.add_string buf {|,"args":{|};
  for j = 0 to Sink.Cursor.nargs c - 1 do
    if j > 0 then Buffer.add_char buf ',';
    Buffer.add_string buf (key r j);
    match Sink.Cursor.arg_tag c j with
    | `Int -> Json.int_to buf (Sink.Cursor.arg_int c j)
    | `Str -> Sink.Cursor.arg_str_to c j buf
  done;
  Buffer.add_string buf "}}"

(* The writer renders into one 64 KiB buffer and hands it to the channel
   once 60 KiB are used, so lines under 4 KiB never make it grow. Its
   renderer is replaced when a row comes from another sink. *)
let writer_buffer = 65536
let writer_drain_at = writer_buffer - 4096

let jsonl_writer oc =
  let buf = Buffer.create writer_buffer and current = ref None in
  let drain () =
    Buffer.output_buffer oc buf;
    Buffer.clear buf
  in
  {
    Sink.write =
      (fun sink row ->
        let r =
          match !current with
          | Some r when Sink.Cursor.sink r.cursor == sink -> r
          | _ ->
            let r = renderer sink in
            current := Some r;
            r
        in
        jsonl_to buf r row;
        Buffer.add_char buf '\n';
        if Buffer.length buf >= writer_drain_at then drain ());
    Sink.flush =
      (fun () ->
        drain ();
        flush oc);
    Sink.close =
      (fun () ->
        drain ();
        close_out oc);
  }

(* --- per-phase profile ------------------------------------------------- *)

type node_acc = {
  mutable n_spans : int;  (* phase spans on this node *)
  mutable n_wall : int;  (* sum of phase-span durations, sim-ns *)
  mutable n_busy : int;  (* sum of the spans' busy_ns args, sim-ns *)
  mutable n_bytes : int;  (* sum of the spans' bytes args *)
  mutable n_strips : int;
  mutable n_opt_actual : int;  (* opt_actual_bytes phase-span args *)
  mutable n_opt_bound : int;  (* opt_bound_bytes phase-span args *)
  mutable n_corrupt : int;  (* corrupt_dropped phase-span args *)
  mutable n_wal_trunc : int;  (* wal_truncated phase-span args *)
  mutable n_wal_repair : int;  (* wal_repaired phase-span args *)
}

type phase_acc = {
  name : string;
  mutable spans : int;
  mutable total_dur : int;
  mutable strips : int;
  mutable has_opt : bool;  (* some phase span carried optimality args *)
  mutable has_integrity : bool;  (* some phase span carried integrity args *)
  per_node : (int, node_acc) Hashtbl.t;
}

(* One phase of the profile: its totals and its per-node rows sorted by
   node. [nodes] counts the rows that saw a phase span (a strip-only node
   row has none). *)
type phase = { acc : phase_acc; rows : (int * node_acc) list; nodes : int }

let int_arg key (ev : Sink.event) =
  match List.assoc_opt key ev.Sink.args with
  | Some (Sink.Int v) -> v
  | _ -> 0

let node_acc acc node =
  match Hashtbl.find_opt acc.per_node node with
  | Some na -> na
  | None ->
    let na =
      {
        n_spans = 0;
        n_wall = 0;
        n_busy = 0;
        n_bytes = 0;
        n_strips = 0;
        n_opt_actual = 0;
        n_opt_bound = 0;
        n_corrupt = 0;
        n_wal_trunc = 0;
        n_wal_repair = 0;
      }
    in
    Hashtbl.add acc.per_node node na;
    na

(* One pass over the events: the labelled phases in first-seen order and
   the instant tallies sorted by key. {!profile} prints this and
   {!metrics_json} encodes it, so the two cannot disagree. *)
let accumulate events =
  let phases : (string, phase_acc) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let phase name =
    match Hashtbl.find_opt phases name with
    | Some acc -> acc
    | None ->
      let acc =
        {
          name;
          spans = 0;
          total_dur = 0;
          strips = 0;
          has_opt = false;
          has_integrity = false;
          per_node = Hashtbl.create 8;
        }
      in
      Hashtbl.add phases name acc;
      order := acc :: !order;
      acc
  in
  let instants : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (ev : Sink.event) ->
      match ev.Sink.kind with
      | Sink.Span when ev.Sink.cat = "phase" ->
        let acc = phase ev.Sink.name in
        acc.spans <- acc.spans + 1;
        acc.total_dur <- acc.total_dur + ev.Sink.dur;
        let na = node_acc acc ev.Sink.node in
        na.n_spans <- na.n_spans + 1;
        na.n_wall <- na.n_wall + ev.Sink.dur;
        na.n_busy <- na.n_busy + int_arg "busy_ns" ev;
        na.n_bytes <- na.n_bytes + int_arg "bytes" ev;
        if List.mem_assoc "opt_actual_bytes" ev.Sink.args then begin
          acc.has_opt <- true;
          na.n_opt_actual <- na.n_opt_actual + int_arg "opt_actual_bytes" ev;
          na.n_opt_bound <- na.n_opt_bound + int_arg "opt_bound_bytes" ev
        end;
        if List.mem_assoc "corrupt_dropped" ev.Sink.args then begin
          acc.has_integrity <- true;
          na.n_corrupt <- na.n_corrupt + int_arg "corrupt_dropped" ev;
          na.n_wal_trunc <- na.n_wal_trunc + int_arg "wal_truncated" ev;
          na.n_wal_repair <- na.n_wal_repair + int_arg "wal_repaired" ev
        end
      | Sink.Span when ev.Sink.cat = "strip" -> (
        match List.assoc_opt "phase" ev.Sink.args with
        | Some (Sink.Str label) ->
          let acc = phase label in
          acc.strips <- acc.strips + 1;
          let na = node_acc acc ev.Sink.node in
          na.n_strips <- na.n_strips + 1
        | _ -> ())
      | Sink.Span -> ()
      | Sink.Instant ->
        let key = ev.Sink.cat ^ "/" ^ ev.Sink.name in
        Hashtbl.replace instants key
          (1 + Option.value ~default:0 (Hashtbl.find_opt instants key))
      | Sink.Counter -> ())
    events;
  let phases =
    List.rev_map
      (fun acc ->
        let rows =
          Hashtbl.fold (fun node na l -> (node, na) :: l) acc.per_node []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
        in
        let nodes = List.length (List.filter (fun (_, na) -> na.n_spans > 0) rows) in
        { acc; rows; nodes })
      !order
  in
  let tallies =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) instants []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  (phases, tallies)

(* Mean wall time of a phase's spans, in ms: total span time over the span
   count, right for uneven node subsets. *)
let mean_ms p = float_of_int p.acc.total_dur /. float_of_int p.acc.spans *. 1e-6

(* Sum of one per-node counter over a phase's rows. *)
let sum p f = List.fold_left (fun a (_, na) -> a + f na) 0 p.rows

(* The profile as JSON: one object per phase with the numbers the text
   tables print, unrounded. Strip-only phases carry no runs, nodes or
   mean; the optimality and integrity members appear, like their tables,
   only when the phase spans carried those args. *)
let profile_json phases =
  let open Json in
  let node_rows p fields =
    List
      (List.filter_map
         (fun (node, na) ->
           if na.n_spans > 0 then Some (Obj (("node", Int node) :: fields na))
           else None)
         p.rows)
  in
  List
    (List.map
       (fun p ->
         let acc = p.acc in
         Obj
           ([ ("phase", Str acc.name); ("spans", Int acc.spans) ]
           @ (if acc.spans = 0 then []
              else
                [
                  ("runs", Int (acc.spans / p.nodes));
                  ("nodes", Int p.nodes);
                  ("mean_wall_ms", Float (mean_ms p));
                ])
           @ [
               ("wall_ns", Int acc.total_dur);
               ("strips", Int acc.strips);
               ( "per_node",
                 List
                   (List.map
                      (fun (node, na) ->
                        Obj
                          [
                            ("node", Int node);
                            ("spans", Int na.n_spans);
                            ("wall_ns", Int na.n_wall);
                            ("busy_ns", Int na.n_busy);
                            ("strips", Int na.n_strips);
                            ("bytes", Int na.n_bytes);
                          ])
                      p.rows) );
             ]
           @ (if acc.has_opt then
                [
                  ( "optimality",
                    Obj
                      [
                        ("actual_bytes", Int (sum p (fun na -> na.n_opt_actual)));
                        ("bound_bytes", Int (sum p (fun na -> na.n_opt_bound)));
                        ( "per_node",
                          node_rows p (fun na ->
                              [
                                ("actual_bytes", Int na.n_opt_actual);
                                ("bound_bytes", Int na.n_opt_bound);
                              ]) );
                      ] );
                ]
              else [])
           @
           if acc.has_integrity then
             [
               ( "integrity",
                 Obj
                   [
                     ("corrupt_dropped", Int (sum p (fun na -> na.n_corrupt)));
                     ("wal_truncated", Int (sum p (fun na -> na.n_wal_trunc)));
                     ("wal_repaired", Int (sum p (fun na -> na.n_wal_repair)));
                     ( "per_node",
                       node_rows p (fun na ->
                           [
                             ("corrupt_dropped", Int na.n_corrupt);
                             ("wal_truncated", Int na.n_wal_trunc);
                             ("wal_repaired", Int na.n_wal_repair);
                           ]) );
                   ] );
             ]
           else []))
       phases)

let metrics_json sink =
  Json.Obj
    [
      ("metrics", Metrics.to_json (Sink.metrics sink));
      ("stats", Json.Obj (Sink.meta sink));
      ("events_emitted", Json.Int (Sink.emitted sink));
      ("events_dropped", Json.Int (Sink.dropped sink));
      ("profile", profile_json (fst (accumulate (Sink.events sink))));
    ]

let profile sink =
  let phases, tallies = accumulate (Sink.events sink) in
  let ms ns = float_of_int ns *. 1e-6 in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.bprintf buf fmt in
  line "Per-phase profile (sim time)\n";
  line "  %-24s %6s %6s %12s %8s\n" "phase" "runs" "nodes" "mean wall ms"
    "strips";
  List.iter
    (fun p ->
      if p.acc.spans = 0 then
        (* Strip spans whose phase label never produced a phase span (e.g.
           the category filter kept "strip" but not "phase"): a strip-only
           row, not a fabricated runs=0 nodes=0 mean=0.000 one. *)
        line "  %-24s %6s %6s %12s %8d\n" p.acc.name "-" "-" "-" p.acc.strips
      else
        line "  %-24s %6d %6d %12.3f %8d\n" p.acc.name (p.acc.spans / p.nodes)
          p.nodes (mean_ms p) p.acc.strips)
    phases;
  (* Per-node skew: the balance breakdown the global rows average away.
     wall is the node's phase-span time, busy its local+comm time inside
     the phase (the busy_ns span arg), bytes its sent volume; the summary
     line carries min/mean/max busy and the imbalance factor (max/mean). *)
  if List.exists (fun p -> p.rows <> []) phases then begin
    line "Per-node skew\n";
    line "  %-24s %6s %12s %12s %8s %12s\n" "phase" "node" "wall ms" "busy ms"
      "strips" "bytes";
    List.iter
      (fun p ->
        let name = p.acc.name in
        List.iter
          (fun (node, na) ->
            if na.n_spans = 0 then
              line "  %-24s %6d %12s %12s %8d %12s\n" name node "-" "-"
                na.n_strips "-"
            else
              line "  %-24s %6d %12.3f %12.3f %8d %12d\n" name node
                (ms na.n_wall) (ms na.n_busy) na.n_strips na.n_bytes)
          p.rows;
        if p.acc.spans > 0 then begin
          let busies =
            List.filter_map
              (fun (_, na) -> if na.n_spans > 0 then Some na.n_busy else None)
              p.rows
          in
          let bmin = List.fold_left min max_int busies
          and bmax = List.fold_left max 0 busies
          and bsum = List.fold_left ( + ) 0 busies in
          let bmean = float_of_int bsum /. float_of_int (List.length busies) in
          let imbalance =
            if bmean <= 0. then 1. else float_of_int bmax /. bmean
          in
          line
            "  %-24s = wall %.3f ms over %d spans; busy min/mean/max \
             %.3f/%.3f/%.3f ms; imbalance %.2fx\n"
            name (ms p.acc.total_dur) p.acc.spans (ms bmin) (bmean *. 1e-6)
            (ms bmax) imbalance
        end)
      phases
  end;
  (* Per-phase communication optimality: each node's actually-moved bytes
     against its lower bound (unique remote objects at their footprints
     plus unique accumulation targets — see DESIGN.md §14). A ratio of
     1.00 is a run that fetched every remote object exactly once with no
     protocol overhead; the surplus decomposes into headers, retransmits
     and boundary-evicted refetches. *)
  if List.exists (fun p -> p.acc.has_opt) phases then begin
    line "Per-phase communication optimality\n";
    line "  %-24s %6s %12s %12s %8s\n" "phase" "node" "actual B" "bound B"
      "ratio";
    let pr_ratio actual bound =
      if bound <= 0 then if actual = 0 then "1.00" else "inf"
      else Printf.sprintf "%.2f" (float_of_int actual /. float_of_int bound)
    in
    List.iter
      (fun p ->
        if p.acc.has_opt then begin
          List.iter
            (fun (node, na) ->
              if na.n_spans > 0 then
                line "  %-24s %6d %12d %12d %8s\n" p.acc.name node
                  na.n_opt_actual na.n_opt_bound
                  (pr_ratio na.n_opt_actual na.n_opt_bound))
            p.rows;
          let actual = sum p (fun na -> na.n_opt_actual)
          and bound = sum p (fun na -> na.n_opt_bound) in
          line "  %-24s = actual %d B, bound %d B, ratio %s\n" p.acc.name
            actual bound (pr_ratio actual bound)
        end)
      phases
  end;
  (* Per-phase integrity: corrupted copies each node's NIC fenced during
     the phase (checksum-failed frames, counted and dropped wire-silently)
     and the WAL records the restart scans truncated and repaired. Rows
     sum to the "=" line. Only present when a fault plan stamped the
     integrity args. *)
  if List.exists (fun p -> p.acc.has_integrity) phases then begin
    line "Per-phase integrity\n";
    line "  %-24s %6s %10s %10s %10s\n" "phase" "node" "corrupt" "wal trunc"
      "wal repair";
    List.iter
      (fun p ->
        if p.acc.has_integrity then begin
          List.iter
            (fun (node, na) ->
              if na.n_spans > 0 then
                line "  %-24s %6d %10d %10d %10d\n" p.acc.name node
                  na.n_corrupt na.n_wal_trunc na.n_wal_repair)
            p.rows;
          line "  %-24s = %d corrupt dropped, %d wal truncated, %d repaired\n"
            p.acc.name
            (sum p (fun na -> na.n_corrupt))
            (sum p (fun na -> na.n_wal_trunc))
            (sum p (fun na -> na.n_wal_repair))
        end)
      phases
  end;
  if tallies <> [] then begin
    line "Event tallies\n";
    List.iter (fun (k, v) -> line "  %-40s %d\n" k v) tallies
  end;
  if Sink.dropped sink > 0 then
    line "  (%d instant/counter events overwritten in the ring)\n"
      (Sink.dropped sink);
  Buffer.add_string buf (Metrics.report (Sink.metrics sink));
  Buffer.contents buf
