(* CI validator for dpa_bench's machine-readable artifacts. Every check
   reads JSON fields; nothing parses printed tables.

   - --events FILE (a streamed --events JSONL log): every line parses with
     the event shape, timestamps never go backwards except where a fresh
     engine's clocks restart (its opening cat="sim"/name="barrier"
     instant), span_ids are unique, and every causal parent resolves to an
     emitted span_id that opens no later than its child. --min-lines N
     sets the least number of lines.
   - --metrics FILE (a --metrics dump): the per-phase profile is
     internally consistent — per-node rows cover the phase's nodes and sum
     to its spans, wall time and strips, the mean is wall/spans, every
     optimality row has actual >= bound >= 0 and the rows sum to the
     totals, and integrity counters are non-negative and sum to theirs.
     With --events from the same run, no event was dropped, each phase's
     wall time and strip count equal what the stream's phase and strip
     spans add up to, and a phase whose stream spans carry corrupt_dropped
     has integrity rows.
   - --critpath FILE (a --critical-path report): at least one phase, and
     per phase the segments sum exactly to the path, 0 <= max span <=
     path <= wall, and actual bytes >= bound >= 0. With --events, the
     stream must carry causal span_id/parent args.
   - --scale FILE (the a16 JSON, BENCH_scale.json): every gate row's
     reduction is boxed/flat words and clears the threshold, and every
     scale row's counters are non-negative.

   Usage: artifact_check [--events F [--min-lines N]] [--metrics F]
                         [--critpath F] [--scale F]
   Exits 1 with a message naming the file and field on the first
   violation. *)

module J = Dpa_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("artifact_check: " ^ s);
      exit 1)
    fmt

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> s
  | exception Sys_error e -> fail "%s" e

let parse ctx s =
  match J.parse s with Ok j -> j | Error e -> fail "%s: parse error: %s" ctx e

let member ctx name j =
  match J.member name j with
  | Some v -> v
  | None -> fail "%s: missing field %S" ctx name

let int_f ctx name j =
  match member ctx name j with
  | J.Int i -> i
  | _ -> fail "%s: field %S is not an int" ctx name

let num ctx name j =
  match member ctx name j with
  | J.Float f -> f
  | J.Int i -> float_of_int i
  | _ -> fail "%s: field %S is not a number" ctx name

let str_f ctx name j =
  match member ctx name j with
  | J.Str s -> s
  | _ -> fail "%s: field %S is not a string" ctx name

let list_f ctx name j =
  match member ctx name j with
  | J.List l -> l
  | _ -> fail "%s: field %S is not a list" ctx name

let sum ctx name rows = List.fold_left (fun a r -> a + int_f ctx name r) 0 rows

(* ---- events JSONL ------------------------------------------------------ *)

(* What the stream says about each labelled phase, for the cross-check
   against the metrics profile. *)
type stream_phase = {
  mutable wall : int;  (* sum of the phase spans' dur *)
  mutable strips : int;  (* strip spans labelled with the phase *)
  mutable integrity : bool;  (* a phase span carried corrupt_dropped *)
}

type stream = {
  lines : int;
  span_ids : int;
  parents : int;
  phases : (string, stream_phase) Hashtbl.t;
}

let check_events ~min_lines path =
  let lines = String.split_on_char '\n' (read path) in
  let lines = List.filter (fun l -> l <> "") lines in
  if List.length lines < min_lines then
    fail "%s: only %d event lines, expected at least %d" path
      (List.length lines) min_lines;
  let phases = Hashtbl.create 8 in
  let phase name =
    match Hashtbl.find_opt phases name with
    | Some p -> p
    | None ->
      let p = { wall = 0; strips = 0; integrity = false } in
      Hashtbl.add phases name p;
      p
  in
  (* span_id -> open ts. Ids are process-unique and parents never cross
     engines, so one table serves the whole file. *)
  let defs = Hashtbl.create 4096 in
  let refs = ref [] in
  let prev_ts = ref min_int in
  List.iteri
    (fun i line ->
      let ctx = Printf.sprintf "%s:%d" path (i + 1) in
      let j = parse ctx line in
      let kind = str_f ctx "kind" j
      and cat = str_f ctx "cat" j
      and name = str_f ctx "name" j
      and ts = int_f ctx "ts" j
      and dur = int_f ctx "dur" j in
      ignore (int_f ctx "node" j);
      if not (List.mem kind [ "span"; "instant"; "counter" ]) then
        fail "%s: unknown kind %S" ctx kind;
      let args =
        match member ctx "args" j with
        | J.Obj fields -> fields
        | _ -> fail "%s: args is not an object" ctx
      in
      (match List.assoc_opt "span_id" args with
      | Some (J.Int id) ->
        if Hashtbl.mem defs id then fail "%s: span_id %d defined twice" ctx id;
        Hashtbl.replace defs id ts
      | _ -> ());
      (match List.assoc_opt "parent" args with
      | Some (J.Int p) -> refs := (p, ts, ctx) :: !refs
      | _ -> ());
      if ts < !prev_ts && not (kind = "instant" && cat = "sim" && name = "barrier")
      then
        fail "%s: ts went backwards (%d after %d) on %s %s/%s" ctx ts !prev_ts
          kind cat name;
      prev_ts := ts;
      match (kind, cat, List.assoc_opt "phase" args) with
      | "span", "phase", _ ->
        let p = phase name in
        p.wall <- p.wall + dur;
        if List.mem_assoc "corrupt_dropped" args then p.integrity <- true
      | "span", "strip", Some (J.Str label) ->
        let p = phase label in
        p.strips <- p.strips + 1
      | _ -> ())
    lines;
  let dangling =
    List.filter
      (fun (p, ts, ctx) ->
        match Hashtbl.find_opt defs p with
        | None -> true
        | Some pts ->
          if pts > ts then
            fail "%s: parent %d opens at %d, after its child's ts %d" ctx p pts
              ts;
          false)
      !refs
  in
  (match dangling with
  | [] -> ()
  | (p, _, ctx) :: _ ->
    fail "%s: %d dangling causal parent reference(s), e.g. %s: parent %d" path
      (List.length dangling) ctx p);
  {
    lines = List.length lines;
    span_ids = Hashtbl.length defs;
    parents = List.length !refs;
    phases;
  }

(* ---- metrics profile ---------------------------------------------------- *)

(* Per-node rows that must be non-negative and sum to the totals of the
   same keys in [obj]. *)
let check_rows ctx obj keys =
  let rows = list_f ctx "per_node" obj in
  List.iter
    (fun k ->
      List.iter
        (fun r -> if int_f ctx k r < 0 then fail "%s: negative %s row" ctx k)
        rows;
      if sum ctx k rows <> int_f ctx k obj then
        fail "%s: %s rows sum to %d, total says %d" ctx k (sum ctx k rows)
          (int_f ctx k obj))
    keys;
  rows

let check_phase path stream p =
  let name = str_f path "phase" p in
  let ctx = Printf.sprintf "%s: phase %S" path name in
  let spans = int_f ctx "spans" p
  and wall = int_f ctx "wall_ns" p
  and strips = int_f ctx "strips" p in
  let rows = check_rows ctx p [ "spans"; "wall_ns"; "strips" ] in
  if spans > 0 then begin
    let live = List.filter (fun r -> int_f ctx "spans" r > 0) rows in
    if List.length live <> int_f ctx "nodes" p then
      fail "%s: %d node rows with spans, %d nodes" ctx (List.length live)
        (int_f ctx "nodes" p);
    let mean = num ctx "mean_wall_ms" p
    and expect = float_of_int wall /. float_of_int spans *. 1e-6 in
    if Float.abs (mean -. expect) > 1e-9 *. Float.abs expect then
      fail "%s: mean_wall_ms %g is not wall/spans = %g" ctx mean expect
  end;
  (match J.member "optimality" p with
  | None -> ()
  | Some o ->
    List.iter
      (fun r ->
        let actual = int_f ctx "actual_bytes" r
        and bound = int_f ctx "bound_bytes" r in
        if bound < 0 || actual < bound then
          fail "%s: node %d moved %d B against a bound of %d B" ctx
            (int_f ctx "node" r) actual bound)
      (check_rows ctx o [ "actual_bytes"; "bound_bytes" ]));
  let integrity_rows =
    match J.member "integrity" p with
    | None -> []
    | Some o ->
      check_rows ctx o [ "corrupt_dropped"; "wal_truncated"; "wal_repaired" ]
  in
  Option.iter
    (fun (s : stream) ->
      let sp =
        match Hashtbl.find_opt s.phases name with
        | Some sp -> sp
        | None -> fail "%s: not in the event stream" ctx
      in
      if sp.wall <> wall then
        fail "%s: wall_ns %d, the stream's phase spans sum to %d" ctx wall
          sp.wall;
      if sp.strips <> strips then
        fail "%s: %d strips, the stream has %d strip spans" ctx strips
          sp.strips;
      if sp.integrity && integrity_rows = [] then
        fail "%s: the stream carries corrupt_dropped, no integrity rows" ctx)
    stream;
  spans

let check_metrics path stream =
  let j = parse path (read path) in
  let phases = list_f path "profile" j in
  let live = List.filter (fun p -> check_phase path stream p > 0) phases in
  if live = [] then fail "%s: no profiled phase with spans" path;
  Option.iter
    (fun (s : stream) ->
      let dropped = int_f path "events_dropped" j in
      if dropped <> 0 then
        fail "%s: %d events dropped with a stream attached" path dropped;
      if Hashtbl.length s.phases <> List.length phases then
        fail "%s: %d profiled phases, the stream has %d" path
          (List.length phases) (Hashtbl.length s.phases))
    stream;
  let integrity = List.filter (fun p -> J.member "integrity" p <> None) phases in
  (List.length phases, List.length integrity)

(* ---- critical-path report ----------------------------------------------- *)

let check_critpath path =
  let j = parse path (read path) in
  let phases = list_f path "phases" j in
  if phases = [] then fail "%s: no analyzed phases in the report" path;
  if int_f path "nphases" j <> List.length phases then
    fail "%s: nphases disagrees with the phases list" path;
  List.iteri
    (fun i p ->
      let ctx = Printf.sprintf "%s: phase %d" path i in
      let wall = int_f ctx "wall_ns" p
      and path_ns = int_f ctx "path_ns" p
      and max_span = int_f ctx "max_span_ns" p
      and actual = int_f ctx "opt_actual_bytes" p
      and bound = int_f ctx "opt_bound_bytes" p in
      let segs =
        match member ctx "segments" p with
        | J.Obj fields ->
          List.map
            (fun (k, v) ->
              match v with
              | J.Int n when n >= 0 -> n
              | _ -> fail "%s: segment %S is not a non-negative int" ctx k)
            fields
        | _ -> fail "%s: segments is not an object" ctx
      in
      let segsum = List.fold_left ( + ) 0 segs in
      if segsum <> path_ns then
        fail "%s: segments sum to %d ns, path_ns is %d" ctx segsum path_ns;
      if not (0 <= max_span && max_span <= path_ns && path_ns <= wall) then
        fail "%s: expected 0 <= max_span (%d) <= path (%d) <= wall (%d)" ctx
          max_span path_ns wall;
      if bound < 0 || actual < bound then
        fail "%s: expected actual (%d) >= bound (%d) >= 0" ctx actual bound)
    phases;
  List.length phases

(* ---- a16 scale sweep ----------------------------------------------------- *)

let check_scale path =
  let j = parse path (read path) in
  if str_f path "bench" j <> "scale" then fail "%s is not a scale sweep" path;
  let threshold = num path "gate_threshold_x" j in
  if threshold < 1. then fail "%s: gate threshold %.2f < 1" path threshold;
  let rows name =
    match list_f path name j with
    | [] -> fail "%s: empty %s table" path name
    | l -> List.mapi (fun i r -> (Printf.sprintf "%s: %s[%d]" path name i, r)) l
  in
  let positive ctx r keys =
    List.iter (fun k -> if int_f ctx k r <= 0 then fail "%s.%s <= 0" ctx k) keys
  and non_negative ctx r keys =
    List.iter (fun k -> if num ctx k r < 0. then fail "%s.%s < 0" ctx k) keys
  in
  let gate = rows "gate" in
  List.iter
    (fun (ctx, r) ->
      positive ctx r [ "nodes"; "bodies"; "steps" ];
      non_negative ctx r [ "wall_s"; "major_collections" ];
      let words = num ctx "words_per_body_step" r
      and boxed = num ctx "boxed_words_per_body_step" r
      and red = num ctx "reduction_x" r in
      if words <= 0. || boxed <= 0. then
        fail "%s: words per body-step must be positive" ctx;
      if Float.abs (red -. (boxed /. words)) > 1e-6 *. red then
        fail "%s: reduction_x %.4f inconsistent with %.1f/%.1f" ctx red boxed
          words;
      if red < threshold then
        fail "%s: reduction %.2fx below the %.1fx threshold" ctx red threshold)
    gate;
  let scale = rows "scale" in
  List.iter
    (fun (ctx, r) ->
      positive ctx r [ "nodes"; "bodies" ];
      non_negative ctx r
        [ "wall_s"; "words_per_body"; "major_collections"; "bytes_moved" ])
    scale;
  (List.length gate, List.length scale)

let () =
  let events = ref None and min_lines = ref 1 and metrics = ref None in
  let critpath = ref None and scale = ref None in
  let set r v = r := Some v in
  Arg.parse
    [
      ("--events", Arg.String (set events), "FILE streamed --events JSONL log");
      ("--min-lines", Arg.Set_int min_lines, "N least number of event lines");
      ("--metrics", Arg.String (set metrics), "FILE --metrics JSON dump");
      ("--critpath", Arg.String (set critpath), "FILE --critical-path report");
      ("--scale", Arg.String (set scale), "FILE a16 scale-sweep JSON");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "usage: artifact_check [--events F [--min-lines N]] [--metrics F] \
     [--critpath F] [--scale F]";
  if (!events, !metrics, !critpath, !scale) = (None, None, None, None) then
    fail "nothing to check: give --events, --metrics, --critpath or --scale";
  let stream = Option.map (check_events ~min_lines:!min_lines) !events in
  let report = ref [] in
  let say fmt = Printf.ksprintf (fun s -> report := s :: !report) fmt in
  Option.iter
    (fun s ->
      say "%d event lines, %d causal spans, %d causal refs" s.lines s.span_ids
        s.parents)
    stream;
  Option.iter
    (fun p ->
      let phases, integrity = check_metrics p stream in
      say "%d profiled phase(s), %d with integrity rows" phases integrity)
    !metrics;
  Option.iter
    (fun p ->
      (* A report implies causal tracing was on, so the stream of the same
         run must carry the annotations checked above. *)
      Option.iter
        (fun s ->
          if s.span_ids = 0 || s.parents = 0 then
            fail "%s: no causal span_id/parent args in the event stream" p)
        stream;
      say "%d critical-path phase(s)" (check_critpath p))
    !critpath;
  Option.iter
    (fun p ->
      let gate, rows = check_scale p in
      say "%d gate row(s), %d scale row(s)" gate rows)
    !scale;
  Printf.printf "artifact_check: OK (%s)\n" (String.concat ", " (List.rev !report))
