(* Tests of the observability layer (lib/obs): JSON round-tripping, the
   metrics registry, the event sink's flight-recorder ring, the exporters,
   and the end-to-end wiring through a real DPA phase — including that an
   observed run produces exactly the same simulated times and statistics as
   an unobserved one. *)

module Json = Dpa_obs.Json
module Metrics = Dpa_obs.Metrics
module Sink = Dpa_obs.Sink
module Export = Dpa_obs.Export

(* --- Json ------------------------------------------------------------- *)

let parse_ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("null", Json.Null);
        ("bools", Json.List [ Json.Bool true; Json.Bool false ]);
        ("int", Json.Int (-42));
        ("float", Json.Float 2.5);
        ("str", Json.Str "a\"b\\c\nd\te\r\x01f");
        ("nested", Json.Obj [ ("empty_list", Json.List []); ("e", Json.Obj []) ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (parse_ok (Json.to_string v) = v)

let test_json_numbers_and_unicode () =
  Alcotest.(check bool) "int" true (parse_ok "-12" = Json.Int (-12));
  Alcotest.(check bool) "float" true (parse_ok "3.5" = Json.Float 3.5);
  Alcotest.(check bool) "exponent" true (parse_ok "1e3" = Json.Float 1000.);
  Alcotest.(check bool) "escape" true (parse_ok {|"é"|} = Json.Str "\xc3\xa9");
  Alcotest.(check bool) "surrogate pair" true
    (parse_ok {|"😀"|} = Json.Str "\xf0\x9f\x98\x80");
  (* Non-finite floats must not produce invalid JSON. *)
  Alcotest.(check string) "nan renders null" "null" (Json.to_string (Json.Float nan))

let test_json_rejects () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error _ -> ()
  in
  bad "";
  bad "tru";
  bad "{}x";
  bad "[1,]";
  bad "{\"a\":}";
  bad "\"unterminated";
  bad "01"

(* Satellite to the causal-tracing PR: escaping is byte-exact for every
   string, control characters (emitted as \u00XX) included — event names
   and phase labels flow into JSONL unfiltered, so the encoder must
   round-trip arbitrary bytes. *)
let qcheck_json_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json: escape/parse round-trips any string"
    QCheck.(string_gen_of_size Gen.small_nat (Gen.char_range '\x00' '\xff'))
    (fun s ->
      match Json.parse (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') when s' = s -> true
      | Ok v ->
        QCheck.Test.fail_reportf "round-trip of %S gave %s" s (Json.to_string v)
      | Error e -> QCheck.Test.fail_reportf "round-trip of %S failed: %s" s e)

let test_json_member () =
  let v = Json.Obj [ ("a", Json.Int 1) ] in
  Alcotest.(check bool) "hit" true (Json.member "a" v = Some (Json.Int 1));
  Alcotest.(check bool) "miss" true (Json.member "b" v = None);
  Alcotest.(check bool) "non-object" true (Json.member "a" (Json.Int 3) = None)

(* [rows] of [sink] (default: every live row) as the [--events] writer
   prints them, one line each. *)
let jsonl ?rows sink =
  let rows = Option.value rows ~default:(Sink.live_rows sink) in
  let path = Filename.temp_file "test_obs" ".jsonl" in
  let w = Export.jsonl_writer (open_out_bin path) in
  Array.iter (w.Sink.write sink) rows;
  w.Sink.close ();
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  text

(* Attach [v] under [k] to the newest event of [s]. *)
let attach s k = function
  | Sink.Int i -> Sink.int s k i
  | Sink.Str v -> Sink.str s k v

(* --- Metrics ----------------------------------------------------------- *)

let test_metrics_counter () =
  let r = Metrics.create () in
  let c = Metrics.counter r "c" in
  Metrics.add c 1;
  Metrics.add (Metrics.counter r "c") 9 (* same name -> same instrument *);
  Alcotest.(check int) "counter" 10 (Metrics.counter_value c);
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics.histogram: \"c\" is registered as another kind")
    (fun () -> ignore (Metrics.histogram r "c"))

let test_metrics_histogram () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  for v = 1 to 100 do
    Metrics.observe h v
  done;
  let s = Metrics.summary h in
  Alcotest.(check int) "count" 100 s.Metrics.count;
  Alcotest.(check int) "sum" 5050 s.Metrics.sum;
  Alcotest.(check int) "min" 1 s.Metrics.min;
  Alcotest.(check int) "max" 100 s.Metrics.max;
  (* Uniform 1..100: the p50 rank falls in the [32,64) bucket, p99 in
     [64,128) clamped to the observed max. *)
  Alcotest.(check bool) "p50 bracket" true (s.Metrics.p50 >= 32. && s.Metrics.p50 <= 64.);
  Alcotest.(check bool) "p90 bracket" true (s.Metrics.p90 >= 64. && s.Metrics.p90 <= 100.);
  Alcotest.(check bool) "p99 bracket" true (s.Metrics.p99 >= 64. && s.Metrics.p99 <= 100.);
  Alcotest.(check bool) "monotone" true
    (s.Metrics.p50 <= s.Metrics.p90 && s.Metrics.p90 <= s.Metrics.p99)

let test_metrics_histogram_edges () =
  let r = Metrics.create () in
  let h = Metrics.histogram r "h" in
  let s = Metrics.summary h in
  Alcotest.(check int) "empty count" 0 s.Metrics.count;
  Alcotest.(check (float 0.)) "empty p99" 0. s.Metrics.p99;
  Metrics.observe h 7;
  Alcotest.(check (float 0.)) "single value p50 exact" 7. (Metrics.percentile h 0.5);
  Alcotest.(check (float 0.)) "single value p99 exact" 7. (Metrics.percentile h 0.99);
  Metrics.observe h (-5) (* clamped to 0 *);
  Alcotest.(check int) "negative clamped" 0 (Metrics.summary h).Metrics.min

let test_metrics_json_shape () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "c") 4;
  Metrics.observe (Metrics.histogram r "h") 10;
  let j = Metrics.to_json r in
  (* The export must survive its own parser. *)
  Alcotest.(check bool) "self-parse" true (parse_ok (Json.to_string j) = j);
  let h =
    match Json.member "histograms" j with
    | Some hs -> Option.get (Json.member "h" hs)
    | None -> Alcotest.fail "no histograms"
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (Json.member k h <> None))
    [ "count"; "sum"; "min"; "max"; "p50"; "p90"; "p99"; "buckets" ]

(* --- Sink -------------------------------------------------------------- *)

let test_sink_ring_overwrites () =
  let s = Sink.create ~capacity:4 () in
  for i = 1 to 10 do
    Sink.instant s ~cat:"t" ~name:"i" ~node:0 ~ts:i
  done;
  for i = 1 to 3 do
    Sink.span s ~cat:"t" ~name:"s" ~node:0 ~ts:i ~dur:1
  done;
  Alcotest.(check int) "dropped" 6 (Sink.dropped s);
  Alcotest.(check int) "emitted" 13 (Sink.emitted s);
  Alcotest.(check int) "spans unbounded" 3 (Sink.nspans s);
  let evs = Sink.events s in
  Alcotest.(check int) "live events" 7 (List.length evs);
  (* The ring keeps the newest instants and the listing is time-sorted. *)
  let ts = List.map (fun (e : Sink.event) -> e.Sink.ts) evs in
  Alcotest.(check bool) "sorted" true (List.sort compare ts = ts);
  Alcotest.(check bool) "oldest instants gone" true
    (List.for_all
       (fun (e : Sink.event) -> e.Sink.kind = Sink.Span || e.Sink.ts > 6)
       evs)

let test_sink_ring_wrap_boundaries () =
  (* Exercise the wrap arithmetic at the exact boundaries: full to the
     brim, one past, and an exact multiple of the capacity. *)
  let instant_ts s =
    List.filter_map
      (fun (e : Sink.event) ->
        if e.Sink.kind = Sink.Instant then Some e.Sink.ts else None)
      (Sink.events s)
  in
  let s = Sink.create ~capacity:4 () in
  for i = 1 to 4 do
    Sink.instant s ~cat:"t" ~name:"i" ~node:0 ~ts:i
  done;
  Alcotest.(check (list int)) "written = capacity" [ 1; 2; 3; 4 ] (instant_ts s);
  Alcotest.(check int) "no drops at exactly full" 0 (Sink.dropped s);
  Sink.instant s ~cat:"t" ~name:"i" ~node:0 ~ts:5;
  Alcotest.(check (list int)) "capacity + 1 evicts oldest" [ 2; 3; 4; 5 ]
    (instant_ts s);
  Alcotest.(check int) "one drop" 1 (Sink.dropped s);
  for i = 6 to 8 do
    Sink.instant s ~cat:"t" ~name:"i" ~node:0 ~ts:i
  done;
  Alcotest.(check (list int)) "exact multiple of capacity" [ 5; 6; 7; 8 ]
    (instant_ts s);
  Alcotest.(check int) "drops = written - capacity" 4 (Sink.dropped s);
  Alcotest.(check int) "emitted counts overwritten" 8 (Sink.emitted s)

let test_events_stable_merge () =
  (* Spans are recorded at close, so the merged listing must order by ts
     with emission order (seq) as the tie-break — not by kind or by the
     order the two backing stores happen to be concatenated in. *)
  let s = Sink.create () in
  Sink.instant s ~cat:"t" ~name:"i1" ~node:0 ~ts:5;
  Sink.instant s ~cat:"t" ~name:"i2" ~node:0 ~ts:5;
  Sink.span s ~cat:"t" ~name:"late-close" ~node:0 ~ts:5 ~dur:1;
  Sink.span s ~cat:"t" ~name:"early" ~node:0 ~ts:2 ~dur:1;
  let evs = Sink.events s in
  Alcotest.(check (list string)) "ts order, seq tie-break"
    [ "early"; "i1"; "i2"; "late-close" ]
    (List.map (fun (e : Sink.event) -> e.Sink.name) evs);
  let sorted_pairs =
    let pairs = List.map (fun (e : Sink.event) -> (e.Sink.ts, e.Sink.seq)) evs in
    List.sort compare pairs = pairs
  in
  Alcotest.(check bool) "(ts, seq) nondecreasing" true sorted_pairs

let collecting_writer () =
  let evs = ref [] and flushes = ref 0 and closes = ref 0 in
  let w =
    {
      Sink.write = (fun sink row -> evs := Sink.event sink row :: !evs);
      Sink.flush = (fun () -> incr flushes);
      Sink.close = (fun () -> incr closes);
    }
  in
  (w, evs, flushes, closes)

let test_streaming_writer () =
  let s = Sink.create ~capacity:4 () in
  let w, evs, flushes, closes = collecting_writer () in
  Sink.attach_writer s w;
  let w2, _, _, _ = collecting_writer () in
  Alcotest.check_raises "second attach rejected"
    (Invalid_argument "Sink.attach_writer: a writer is already attached")
    (fun () -> Sink.attach_writer s w2);
  (* Out-of-order emission within a flush segment is sorted at flush. *)
  Sink.instant s ~cat:"t" ~name:"i" ~node:0 ~ts:3;
  Sink.instant s ~cat:"t" ~name:"i" ~node:0 ~ts:1;
  Sink.instant s ~cat:"t" ~name:"i" ~node:0 ~ts:2;
  Sink.flush_writer s;
  Alcotest.(check (list int)) "segment sorted" [ 1; 2; 3 ]
    (List.rev_map (fun (e : Sink.event) -> e.Sink.ts) !evs);
  Alcotest.(check int) "flushed once" 1 !flushes;
  (* Overflow the 4-entry ring: the writer already captured every event,
     so nothing counts as dropped. *)
  for i = 4 to 13 do
    Sink.instant s ~cat:"t" ~name:"i" ~node:0 ~ts:i
  done;
  Sink.close_writer s;
  Alcotest.(check int) "zero drops with writer attached" 0 (Sink.dropped s);
  Alcotest.(check int) "streamed everything" 13 (Sink.streamed s);
  Alcotest.(check int) "streamed past ring capacity" 13 (List.length !evs);
  Alcotest.(check int) "closed" 1 !closes;
  Sink.close_writer s (* idempotent *);
  Alcotest.(check int) "close is idempotent" 1 !closes;
  (* ...but overwrites after detach are real losses again. *)
  for i = 14 to 18 do
    Sink.instant s ~cat:"t" ~name:"i" ~node:0 ~ts:i
  done;
  Alcotest.(check int) "drops resume without writer" 5 (Sink.dropped s)

let test_sink_meta () =
  let s = Sink.create () in
  Sink.set_meta s "b" (Json.Int 1);
  Sink.set_meta s "a" (Json.Int 2);
  Sink.set_meta s "b" (Json.Int 3);
  Alcotest.(check bool) "sorted + overwritten" true
    (Sink.meta s = [ ("a", Json.Int 2); ("b", Json.Int 3) ])

let test_global_sink_pickup () =
  let s = Sink.create () in
  Sink.set_global (Some s);
  Fun.protect
    ~finally:(fun () -> Sink.set_global None)
    (fun () ->
      let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:2) in
      Alcotest.(check bool) "adopted" true
        (match Dpa_sim.Engine.sink engine with Some s' -> s' == s | None -> false));
  let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:2) in
  Alcotest.(check bool) "cleared" true (Dpa_sim.Engine.sink engine = None)

(* --- end to end through a real phase ----------------------------------- *)

let run_bh ~sink () =
  let bodies = Dpa_bh.Plummer.generate ~n:200 ~seed:17 in
  let octree = Dpa_bh.Octree.build bodies in
  let tree = Dpa_bh.Bh_global.distribute octree ~nnodes:3 in
  let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:3) in
  Dpa_sim.Engine.set_sink engine sink;
  Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
    ~params:Dpa_bh.Bh_force.default_params
    (Dpa_baselines.Variant.dpa ~strip_size:16 ())

let observed_bh =
  (* One observed run shared by the export tests below. *)
  lazy
    (let sink = Sink.create () in
     let r = run_bh ~sink:(Some sink) () in
     (sink, r))

let test_chrome_trace_valid () =
  let sink, _ = Lazy.force observed_bh in
  let j = parse_ok (Export.chrome_trace sink) in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  Alcotest.(check bool) "nonempty" true (events <> []);
  (* At least one complete phase span per node. *)
  List.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "phase span on node %d" node)
        true
        (List.exists
           (fun e ->
             Json.member "ph" e = Some (Json.Str "X")
             && Json.member "cat" e = Some (Json.Str "phase")
             && Json.member "name" e = Some (Json.Str "bh-force")
             && Json.member "tid" e = Some (Json.Int node))
           events))
    [ 0; 1; 2 ]

let test_metrics_export_valid () =
  let sink, r = Lazy.force observed_bh in
  let j = parse_ok (Json.to_string (Export.metrics_json sink)) in
  let histos =
    match Json.member "metrics" j with
    | Some m -> Option.get (Json.member "histograms" m)
    | None -> Alcotest.fail "no metrics"
  in
  List.iter
    (fun name ->
      match Json.member name histos with
      | Some h ->
        List.iter
          (fun k ->
            Alcotest.(check bool)
              (name ^ "." ^ k ^ " present")
              true
              (Json.member k h <> None))
          [ "p50"; "p90"; "p99" ]
      | None -> Alcotest.failf "histogram %s missing" name)
    [ "agg_batch.bh-force"; "wait_ns.bh-force"; "outstanding.bh-force" ];
  (* The attached Dpa_stats document matches the run's own statistics. *)
  let stats = Option.get r.Dpa_bh.Bh_run.dpa_stats in
  match Json.member "stats" j with
  | Some s ->
    Alcotest.(check bool) "dpa_stats attached" true
      (Json.member "dpa_stats.bh-force" s = Some (Dpa.Dpa_stats.to_json stats))
  | None -> Alcotest.fail "no stats"

let test_jsonl_and_profile () =
  let sink, _ = Lazy.force observed_bh in
  let lines =
    jsonl sink |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "has lines" true (lines <> []);
  List.iter (fun l -> ignore (parse_ok l)) lines;
  let profile = Export.profile sink in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " in profile") true
        (contains profile needle))
    [ "bh-force"; "wait_ns" ]

let test_jsonl_roundtrip_kinds () =
  (* Every event kind, with every arg type, must survive the in-repo
     parser — the same check `make obs-smoke` runs on a streamed file. *)
  let s = Sink.create () in
  Sink.span s ~cat:"phase" ~name:"sp" ~node:1 ~ts:5 ~dur:7;
  Sink.int s "i" (-3);
  Sink.str s "s" "x\"y";
  Sink.instant s ~cat:"fault" ~name:"drop" ~node:0 ~ts:9;
  Sink.str s "sev" "hi";
  Sink.counter s ~name:"occ" ~node:2 ~ts:11 42;
  let rows = Sink.live_rows s in
  Alcotest.(check int) "all three kinds" 3 (Array.length rows);
  Array.iter
    (fun row ->
      let ev = Sink.event s row in
      let j = parse_ok (jsonl ~rows:[| row |] s) in
      let kind =
        match ev.Sink.kind with
        | Sink.Span -> "span"
        | Sink.Instant -> "instant"
        | Sink.Counter -> "counter"
      in
      Alcotest.(check bool) (kind ^ " kind") true
        (Json.member "kind" j = Some (Json.Str kind));
      Alcotest.(check bool) (kind ^ " name") true
        (Json.member "name" j = Some (Json.Str ev.Sink.name));
      Alcotest.(check bool) (kind ^ " node") true
        (Json.member "node" j = Some (Json.Int ev.Sink.node));
      Alcotest.(check bool) (kind ^ " ts") true
        (Json.member "ts" j = Some (Json.Int ev.Sink.ts));
      Alcotest.(check bool) (kind ^ " dur") true
        (Json.member "dur" j = Some (Json.Int ev.Sink.dur));
      let args = Option.get (Json.member "args" j) in
      List.iter
        (fun (k, v) ->
          let expected =
            match v with
            | Sink.Int i -> Json.Int i
            | Sink.Str str -> Json.Str str
          in
          Alcotest.(check bool) (kind ^ " arg " ^ k) true
            (Json.member k args = Some expected))
        ev.Sink.args)
    rows

(* Tokenized rows of a profile whose first column is [name]. *)
let profile_rows profile name =
  String.split_on_char '\n' profile
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l |> List.filter (fun s -> s <> "") with
         | n :: rest when n = name -> Some rest
         | _ -> None)

let phase_span ?(busy = 0) ?(bytes = 0) s ~node ~dur =
  Sink.span s ~cat:"phase" ~name:"p" ~node ~ts:0 ~dur;
  Sink.int s "busy_ns" busy;
  Sink.int s "bytes" bytes

let test_profile_mean_uneven_nodes () =
  (* Node 0 ran the phase twice, node 1 once: 3+5+4 = 12 ms over 3 spans
     is a 4.000 ms mean. The old spans/nnodes*nnodes denominator (with
     integer-division runs) divided 12 by 2 and printed 6.000. *)
  let s = Sink.create () in
  phase_span s ~node:0 ~dur:3_000_000 ~busy:2_000_000 ~bytes:10;
  phase_span s ~node:0 ~dur:5_000_000 ~busy:4_000_000 ~bytes:20;
  phase_span s ~node:1 ~dur:4_000_000 ~busy:2_000_000 ~bytes:30;
  let rows = profile_rows (Export.profile s) "p" in
  (match List.find_opt (fun r -> List.length r = 4) rows with
  | Some [ runs; nodes; mean; strips ] ->
    Alcotest.(check string) "runs" "1" runs;
    Alcotest.(check string) "nodes" "2" nodes;
    Alcotest.(check string) "mean = total/spans" "4.000" mean;
    Alcotest.(check string) "strips" "0" strips
  | _ -> Alcotest.fail "no global profile row for phase p");
  (* The skew summary carries the real total and busy spread. *)
  match List.find_opt (fun r -> List.nth_opt r 0 = Some "=") rows with
  | Some ("=" :: "wall" :: wall :: "ms" :: "over" :: spans :: rest) ->
    Alcotest.(check string) "summary wall" "12.000" wall;
    Alcotest.(check string) "summary spans" "3" spans;
    let rest = String.concat " " rest in
    Alcotest.(check bool) "busy min/mean/max" true
      (contains rest "2.000/4.000/6.000");
    Alcotest.(check bool) "imbalance" true (contains rest "1.50x")
  | _ -> Alcotest.fail "no skew summary line for phase p"

let test_profile_strip_only_rows () =
  (* Strip spans whose phase label never produced a phase-category span
     (e.g. --trace-cats strip) must render as strip-only rows, not the old
     ghost "runs=0 nodes=0 mean=0.000" ones. *)
  let s = Sink.create () in
  Sink.span s ~cat:"strip" ~name:"strip" ~node:2 ~ts:0 ~dur:5;
  Sink.str s "phase" "ghost";
  Sink.span s ~cat:"strip" ~name:"strip" ~node:2 ~ts:5 ~dur:5;
  Sink.str s "phase" "ghost";
  let profile = Export.profile s in
  let rows = profile_rows profile "ghost" in
  Alcotest.(check bool) "global row is strip-only" true
    (List.mem [ "-"; "-"; "-"; "2" ] rows);
  Alcotest.(check bool) "skew row is strip-only" true
    (List.mem [ "2"; "-"; "-"; "2"; "-" ] rows);
  Alcotest.(check bool) "no summary for a phase with no spans" true
    (not (List.exists (fun r -> List.nth_opt r 0 = Some "=") rows))

(* The metrics profile must agree exactly with the event stream it was
   built from: each phase's wall_ns is the sum of dur over its
   cat:"phase" spans in its JSONL, and its strips are the cat:"strip"
   spans labelled with it. *)
let test_profile_json_matches_stream () =
  let sink, _ = Lazy.force observed_bh in
  let lines =
    List.filter_map
      (fun l -> if l = "" then None else Some (parse_ok l))
      (String.split_on_char '\n' (jsonl sink))
  in
  let field k j = Option.get (Json.member k j) in
  let spans cat =
    List.filter
      (fun j ->
        field "kind" j = Json.Str "span" && field "cat" j = Json.Str cat)
      lines
  in
  let phases =
    match Json.member "profile" (parse_ok (Json.to_string (Export.metrics_json sink))) with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no profile list"
  in
  Alcotest.(check bool) "profiled phases" true (phases <> []);
  List.iter
    (fun p ->
      let name = field "phase" p in
      let wall =
        List.fold_left
          (fun a j ->
            match (field "name" j, field "dur" j) with
            | n, Json.Int d when n = name -> a + d
            | _ -> a)
          0 (spans "phase")
      and strips =
        List.length
          (List.filter
             (fun j -> Json.member "phase" (field "args" j) = Some name)
             (spans "strip"))
      in
      Alcotest.(check bool) "phase has strips" true (strips > 0);
      Alcotest.(check bool) "wall_ns = sum of phase-span dur" true
        (field "wall_ns" p = Json.Int wall);
      Alcotest.(check bool) "strips = labelled strip spans" true
        (field "strips" p = Json.Int strips))
    phases

let test_writer_matches_snapshot_export () =
  (* With no ring overflow, streaming a real phase (flushes at the
     engine's barriers plus the final close) must produce exactly the
     lines the one-shot snapshot exporter renders at the end. *)
  let sink = Sink.create () in
  let path = Filename.temp_file "test_obs" ".jsonl" in
  Sink.attach_writer sink (Export.jsonl_writer (open_out_bin path));
  let (_ : Dpa_bh.Bh_run.phase_result) = run_bh ~sink:(Some sink) () in
  Sink.close_writer sink;
  let stream = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check int) "no drops" 0 (Sink.dropped sink);
  Alcotest.(check int) "streamed everything emitted" (Sink.emitted sink)
    (Sink.streamed sink);
  Alcotest.(check bool) "nonempty" true (Sink.streamed sink > 0);
  Alcotest.(check bool) "stream equals snapshot export" true
    (stream = jsonl sink)

(* The serializer's oracle: the [Json.t] tree the JSONL lines were once
   rendered from, kept here only. [Export.jsonl_writer] must print exactly
   what [Json.to_string] prints for the row's event. *)
let tree_of_event (ev : Sink.event) =
  let arg = function
    | Sink.Int i -> Json.Int i
    | Sink.Str s -> Json.Str s
  in
  Json.Obj
    [
      ( "kind",
        Json.Str
          (match ev.Sink.kind with
          | Sink.Span -> "span"
          | Sink.Instant -> "instant"
          | Sink.Counter -> "counter") );
      ("name", Json.Str ev.Sink.name);
      ("cat", Json.Str ev.Sink.cat);
      ("node", Json.Int ev.Sink.node);
      ("ts", Json.Int ev.Sink.ts);
      ("dur", Json.Int ev.Sink.dur);
      ("args", Json.Obj (List.map (fun (k, v) -> (k, arg v)) ev.Sink.args));
    ]

let gen_str =
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:(char_range '\x00' '\xff') (int_range 0 12);
        oneofl
          [
            ""; "plain"; "\""; "\\"; "a\"b\\c"; "\x00\x1f\x7f"; "\n\r\t\b\012";
            "\x80\xff"; "\xc3\xa9";
          ];
      ])

(* Labels, categories and argument keys come from a pool of awkward
   strings (quotes, backslashes, control and non-ASCII bytes) as often as
   at random, so the events of one sink share them and the serializer's
   cached heads and key prefixes are reused, not only rendered. *)
let gen_label =
  QCheck.Gen.(
    oneof
      [
        gen_str;
        oneofl
          [
            "phase"; "\"q\""; "back\\slash"; "\x01ctl\x1f"; "caf\xc3\xa9"; "\xff";
          ];
      ])

let gen_int =
  QCheck.Gen.(
    oneof
      [
        int;
        int_range (-1000) 1000;
        oneofl [ min_int; max_int; min_int + 1; 0; -1; 9; 10; -10; 99; 100 ];
      ])

let gen_event =
  let open QCheck.Gen in
  let arg =
    oneof
      [
        map (fun i -> Sink.Int i) gen_int;
        map (fun s -> Sink.Str s) gen_str;
      ]
  in
  let* kind = oneofl [ Sink.Span; Sink.Instant; Sink.Counter ] in
  let* name = gen_label and* cat = gen_label in
  let* node = gen_int and* ts = gen_int and* dur = gen_int in
  let* value = gen_int in
  let+ args = list_size (int_range 0 4) (pair gen_label arg) in
  (* The shape the emission API gives each kind: a counter's category is
     "counter" and its value comes first; only spans have a duration. *)
  match kind with
  | Sink.Span -> { Sink.kind; name; cat; node; ts; dur; args; seq = 0 }
  | Sink.Instant -> { Sink.kind; name; cat; node; ts; dur = 0; args; seq = 0 }
  | Sink.Counter ->
    let args = ("value", Sink.Int value) :: args in
    { Sink.kind; name; cat = "counter"; node; ts; dur = 0; args; seq = 0 }

(* [evs] emitted into one fresh sink, in order, with their sequence
   numbers set to match. *)
let emit_events evs =
  let s = Sink.create () in
  let evs =
    List.mapi
      (fun seq (ev : Sink.event) ->
        let { Sink.name; cat; node; ts; dur; _ } = ev in
        (match (ev.Sink.kind, ev.Sink.args) with
        | Sink.Span, args ->
          Sink.span s ~cat ~name ~node ~ts ~dur;
          List.iter (fun (k, v) -> attach s k v) args
        | Sink.Instant, args ->
          Sink.instant s ~cat ~name ~node ~ts;
          List.iter (fun (k, v) -> attach s k v) args
        | Sink.Counter, (_, Sink.Int value) :: args ->
          Sink.counter s ~name ~node ~ts value;
          List.iter (fun (k, v) -> attach s k v) args
        | Sink.Counter, _ ->
          invalid_arg "emit_events: a counter's value comes first");
        { ev with Sink.seq })
      evs
  in
  (s, evs)

let qcheck_jsonl_matches_tree =
  QCheck.Test.make ~count:500
    ~name:"jsonl: the serializer prints the event's Json tree"
    (QCheck.make
       ~print:(fun evs ->
         String.concat "\n"
           (List.map (fun ev -> Json.to_string (tree_of_event ev)) evs))
       QCheck.Gen.(list_size (int_range 1 6) gen_event))
    (fun evs ->
      let s, evs = emit_events evs in
      let expect =
        List.stable_sort (fun a b -> compare a.Sink.ts b.Sink.ts) evs
      in
      let rows = Array.to_list (Sink.live_rows s) in
      (* A JSON string escapes its newlines, so lines split cleanly. *)
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' (jsonl s))
      in
      if List.length lines <> List.length rows then
        QCheck.Test.fail_report "one line per row";
      List.iter2
        (fun (row, ev) line ->
          if Sink.event s row <> ev then
            QCheck.Test.fail_report "a row does not read back as its event";
          let expected = Json.to_string (tree_of_event ev) in
          if line <> expected then
            QCheck.Test.fail_reportf "serializer gave %S, tree %S" line
              expected;
          match Json.parse line with
          | Ok _ -> ()
          | Error e -> QCheck.Test.fail_reportf "%S does not parse: %s" line e)
        (List.combine rows expect) lines;
      true)

(* The tree oracle above prints through the same scalar writers, so those
   are checked on their own against the renderings they replaced:
   [string_of_int], and a [String.iter]/[Printf] escaper. *)
let reference_escape s =
  let b = Buffer.create 16 in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let qcheck_json_scalars_match_reference =
  QCheck.Test.make ~count:1000
    ~name:"json: int and string writers match string_of_int and Printf"
    (QCheck.make
       ~print:QCheck.Print.(pair int string)
       (QCheck.Gen.pair gen_int gen_str))
    (fun (i, s) ->
      Json.to_string (Json.Int i) = string_of_int i
      && Json.to_string (Json.Str s) = reference_escape s)

(* [Json.int_to] on its own, against [string_of_int]: every digit count
   and sign, and the digit-pair boundaries of its two-at-a-time loop. *)
let int_to_string i =
  let b = Buffer.create 24 in
  Buffer.add_char b '<';
  Json.int_to b i;
  Buffer.add_char b '>';
  Buffer.contents b

let qcheck_int_to =
  QCheck.Test.make ~count:2000 ~name:"json: int_to prints string_of_int"
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         oneof
           [
             int_range 0 10;
             int_range (-10) (-1);
             int_range (-100_000) 100_000;
             int;
             oneofl [ min_int; max_int; min_int + 1; max_int - 1 ];
           ]))
    (fun i -> int_to_string i = "<" ^ string_of_int i ^ ">")

let test_int_to_boundaries () =
  let rec powers p acc =
    if p > max_int / 10 then p :: acc else powers (p * 10) (p :: acc)
  in
  let around p = [ p - 1; p; p + 1 ] in
  let cases =
    [ 0; min_int; max_int; min_int + 1 ]
    @ List.concat_map
        (fun p -> around p @ List.map Int.neg (around p))
        (powers 1 [])
  in
  List.iter
    (fun i ->
      Alcotest.(check string) (string_of_int i) ("<" ^ string_of_int i ^ ">")
        (int_to_string i))
    cases

(* One [jsonl_writer] serving two sinks in turn. Both sinks intern their
   first label as id 0, so a head cache keyed by id alone would print the
   first sink's label for the second sink's row. *)
let test_jsonl_writer_second_sink () =
  let path = Filename.temp_file "test_obs" ".jsonl" in
  let w = Export.jsonl_writer (open_out_bin path) in
  let a = Sink.create () and b = Sink.create () in
  Sink.attach_writer a w;
  Sink.attach_writer b w;
  Sink.instant a ~cat:"first" ~name:"alpha" ~node:0 ~ts:1;
  Sink.int a "from_a" 1;
  Sink.flush_writer a;
  Sink.instant b ~cat:"second" ~name:"beta" ~node:1 ~ts:2;
  Sink.int b "from_b" 2;
  Sink.instant a ~cat:"first" ~name:"alpha" ~node:0 ~ts:3;
  Sink.flush_writer b;
  Sink.flush_writer a;
  Sink.close_writer b;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "each row printed with its own sink's labels"
    (String.concat "\n"
       [
         {|{"kind":"instant","name":"alpha","cat":"first","node":0,"ts":1,|}
         ^ {|"dur":0,"args":{"from_a":1}}|};
         {|{"kind":"instant","name":"beta","cat":"second","node":1,"ts":2,|}
         ^ {|"dur":0,"args":{"from_b":2}}|};
         {|{"kind":"instant","name":"alpha","cat":"first","node":0,"ts":3,|}
         ^ {|"dur":0,"args":{}}|};
         "";
       ])
    text

(* The real writer, not a stand-in: two BH phases on one engine stream
   through [Export.jsonl_writer] into a file, over four barrier flushes
   (each phase opens and closes with one) whose closing segments outgrow
   the writer's 64 KiB buffer. The file must be the snapshot export, and
   its digest the one this workload streamed before the writer was
   rebuilt around a reused buffer. *)
let test_jsonl_writer_streams_snapshot () =
  let bodies = Dpa_bh.Plummer.generate ~n:200 ~seed:17 in
  let tree =
    Dpa_bh.Bh_global.distribute (Dpa_bh.Octree.build bodies) ~nnodes:3
  in
  let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:3) in
  let sink = Sink.create () in
  Sink.set_causal sink (Some (Dpa_obs.Causal.create ()));
  Dpa_sim.Engine.set_sink engine (Some sink);
  let path = Filename.temp_file "test_obs" ".jsonl" in
  let oc = open_out_bin path in
  let w = Export.jsonl_writer oc in
  (* Channel offsets after each flush delimit the segments. *)
  let marks = ref [] in
  Sink.attach_writer sink
    {
      w with
      Sink.flush =
        (fun () ->
          w.Sink.flush ();
          marks := pos_out oc :: !marks);
    };
  for _ = 1 to 2 do
    ignore
      (Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
         ~params:Dpa_bh.Bh_force.default_params
         (Dpa_baselines.Variant.dpa ~strip_size:16 ()))
  done;
  Sink.close_writer sink;
  let ic = open_in_bin path in
  let stream = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let rec segments = function
    | a :: (b :: _ as rest) -> (a - b) :: segments rest
    | [ a ] -> [ a ]
    | [] -> []
  in
  let segs = List.filter (fun n -> n > 0) (segments !marks) in
  Alcotest.(check bool) "at least two flushed segments" true
    (List.length segs >= 2);
  Alcotest.(check bool) "a segment larger than the buffer" true
    (List.exists (fun n -> n > 65536) segs);
  Alcotest.(check int) "streamed everything emitted" (Sink.emitted sink)
    (Sink.streamed sink);
  Alcotest.(check bool) "stream equals snapshot export" true
    (stream = jsonl sink);
  Alcotest.(check string) "stream digest" "a28aaeacd62d660d48bbf10a6477d1d0"
    (Digest.to_hex (Digest.string stream))

let test_observing_is_transparent () =
  let off = run_bh ~sink:None () in
  let _, on_ = Lazy.force observed_bh in
  Alcotest.(check bool) "breakdown identical" true
    (off.Dpa_bh.Bh_run.breakdown = on_.Dpa_bh.Bh_run.breakdown);
  Alcotest.(check bool) "stats identical" true
    (off.Dpa_bh.Bh_run.dpa_stats = on_.Dpa_bh.Bh_run.dpa_stats);
  Alcotest.(check bool) "forces identical" true
    (off.Dpa_bh.Bh_run.accs = on_.Dpa_bh.Bh_run.accs)

(* --- Dpa_stats --------------------------------------------------------- *)

let test_stats_merge_edges () =
  let z = Dpa.Dpa_stats.merge [] in
  Alcotest.(check bool) "empty merge is zero" true (z = Dpa.Dpa_stats.create ());
  let a = Dpa.Dpa_stats.create () and b = Dpa.Dpa_stats.create () in
  a.Dpa.Dpa_stats.spawns <- 3;
  a.Dpa.Dpa_stats.max_outstanding <- 10;
  a.Dpa.Dpa_stats.max_batch <- 2;
  a.Dpa.Dpa_stats.align_peak <- 5;
  b.Dpa.Dpa_stats.spawns <- 4;
  b.Dpa.Dpa_stats.max_outstanding <- 7;
  b.Dpa.Dpa_stats.max_batch <- 9;
  b.Dpa.Dpa_stats.align_peak <- 1;
  let m = Dpa.Dpa_stats.merge [ a; b ] in
  Alcotest.(check int) "sums add" 7 m.Dpa.Dpa_stats.spawns;
  Alcotest.(check int) "max_outstanding takes max" 10
    m.Dpa.Dpa_stats.max_outstanding;
  Alcotest.(check int) "max_batch takes max" 9 m.Dpa.Dpa_stats.max_batch;
  Alcotest.(check int) "align_peak takes max" 5 m.Dpa.Dpa_stats.align_peak;
  (* Merging one element is the identity. *)
  Alcotest.(check bool) "singleton identity" true (Dpa.Dpa_stats.merge [ a ] = a)

let test_stats_to_json () =
  let a = Dpa.Dpa_stats.create () in
  a.Dpa.Dpa_stats.spawns <- 2;
  a.Dpa.Dpa_stats.inline_local <- 5;
  a.Dpa.Dpa_stats.align_hits <- 1;
  a.Dpa.Dpa_stats.merge_hits <- 3;
  let j = Dpa.Dpa_stats.to_json a in
  Alcotest.(check bool) "spawns" true (Json.member "spawns" j = Some (Json.Int 2));
  Alcotest.(check bool) "derived total" true
    (Json.member "total_reads" j = Some (Json.Int 11));
  Alcotest.(check bool) "self-parse" true (parse_ok (Json.to_string j) = j)

(* --- the sink against its list model ------------------------------------ *)

(* The reference is the list semantics the sink had before its columnar
   storage: spans kept in a list, the ring as its newest [capacity]
   instants and counters, and the pending flush segment as a list of
   records. Operation sequences mix emissions carrying 0-7 arguments,
   category and spans-only filters, and writer attach/flush/close at random
   points; [Burst] emits more than two chunks' worth of instants at once,
   so ring chunks leave the window, some streamed and some not. *)
type sink_op =
  | Emit_span of string * string * int * int * int * (string * Sink.arg) list
  | Emit_instant of string * string * int * int * (string * Sink.arg) list
  | Emit_counter of string * int * int * int * (string * Sink.arg) list
  | Burst of int
  | Set_cats of string list option
  | Set_spans_only of bool
  | Attach
  | Flush
  | Close

let show_args args =
  String.concat ","
    (List.map
       (fun (k, v) ->
         k ^ "="
         ^
         match v with
         | Sink.Int i -> string_of_int i
         | Sink.Str s -> Printf.sprintf "%S" s)
       args)

let show_sink_op = function
  | Emit_span (cat, name, node, ts, dur, a) ->
    Printf.sprintf "span %s/%s n%d ts%d d%d [%s]" cat name node ts dur
      (show_args a)
  | Emit_instant (cat, name, node, ts, a) ->
    Printf.sprintf "instant %s/%s n%d ts%d [%s]" cat name node ts (show_args a)
  | Emit_counter (name, node, ts, v, a) ->
    Printf.sprintf "counter %s n%d ts%d =%d [%s]" name node ts v (show_args a)
  | Burst n -> Printf.sprintf "burst %d" n
  | Set_cats None -> "cats all"
  | Set_cats (Some l) -> "cats " ^ String.concat "," l
  | Set_spans_only b -> Printf.sprintf "spans_only %b" b
  | Attach -> "attach"
  | Flush -> "flush"
  | Close -> "close"

let gen_sink_case =
  let open QCheck.Gen in
  let cat = oneofl [ "a"; "b"; "c" ] and name = oneofl [ "x"; "y"; "z" ] in
  let node = int_range 0 3 and ts = int_range 0 20 in
  let arg =
    oneof
      [
        map (fun i -> Sink.Int i) (int_range (-5) 5);
        map (fun s -> Sink.Str s) (oneofl [ ""; "s"; "q\"t" ]);
      ]
  in
  let args = list_size (int_range 0 7) (pair (oneofl [ "k0"; "k1"; "k2" ]) arg) in
  let op =
    frequency
      [
        ( 6,
          map3
            (fun (c, n) (node, ts, dur) a -> Emit_span (c, n, node, ts, dur, a))
            (pair cat name)
            (triple node ts (int_range 0 5))
            args );
        ( 8,
          map3
            (fun (c, n) (node, ts) a -> Emit_instant (c, n, node, ts, a))
            (pair cat name) (pair node ts) args );
        ( 3,
          map3
            (fun (n, node) (ts, v) a -> Emit_counter (n, node, ts, v, a))
            (pair name node)
            (pair ts (int_range 0 9))
            args );
        (2, map (fun n -> Burst n) (int_range 8200 12000));
        ( 1,
          map
            (fun l -> Set_cats l)
            (opt (list_size (int_range 0 2) (oneofl [ "a"; "b"; "c" ]))) );
        (1, map (fun b -> Set_spans_only b) bool);
        (2, return Attach);
        (2, return Flush);
        (2, return Close);
      ]
  in
  pair (int_range 1 8) (list_size (int_range 1 30) op)

type sink_model = {
  m_cap : int;
  mutable m_spans : Sink.event list;  (* newest first *)
  mutable m_ring : Sink.event list;  (* newest first, at most [m_cap] *)
  mutable m_written : int;
  mutable m_dropped : int;
  mutable m_filtered : int;
  mutable m_seq : int;
  mutable m_cats : string list option;
  mutable m_spans_only : bool;
  mutable m_writer : bool;
  mutable m_pending : Sink.event list;
  m_out : Sink.event Dpa_util.Dynarray.t;  (* streamed, in order *)
  mutable m_streamed : int;
}

let by_ts_seq (a : Sink.event) (b : Sink.event) =
  compare (a.Sink.ts, a.Sink.seq) (b.Sink.ts, b.Sink.seq)

let model_emit m kind ~cat ~name ~node ~ts ~dur args =
  let enabled =
    match m.m_cats with None -> true | Some l -> List.mem cat l
  in
  let accepted =
    match kind with
    | Sink.Span -> enabled
    | Sink.Instant -> (not m.m_spans_only) && enabled
    | Sink.Counter -> not m.m_spans_only
  in
  if not accepted then m.m_filtered <- m.m_filtered + 1
  else begin
    let ev = { Sink.kind; name; cat; node; ts; dur; args; seq = m.m_seq } in
    m.m_seq <- m.m_seq + 1;
    if m.m_writer then m.m_pending <- ev :: m.m_pending;
    if kind = Sink.Span then m.m_spans <- ev :: m.m_spans
    else begin
      if m.m_written >= m.m_cap && not m.m_writer then
        m.m_dropped <- m.m_dropped + 1;
      m.m_written <- m.m_written + 1;
      m.m_ring <- List.filteri (fun i _ -> i < m.m_cap) (ev :: m.m_ring)
    end
  end

let model_flush m =
  if m.m_writer then begin
    let seg = List.sort by_ts_seq m.m_pending in
    m.m_pending <- [];
    List.iter (fun ev -> ignore (Dpa_util.Dynarray.add m.m_out ev)) seg;
    m.m_streamed <- m.m_streamed + List.length seg
  end

let burst_instant i = ("a", "x", i land 3, i mod 7, [ ("k0", Sink.Int i) ])

let apply_sink_op s m got op =
  let emit_args = List.iter (fun (k, v) -> attach s k v) in
  match op with
  | Emit_span (cat, name, node, ts, dur, a) ->
    Sink.span s ~cat ~name ~node ~ts ~dur;
    emit_args a;
    model_emit m Sink.Span ~cat ~name ~node ~ts ~dur a
  | Emit_instant (cat, name, node, ts, a) ->
    Sink.instant s ~cat ~name ~node ~ts;
    emit_args a;
    model_emit m Sink.Instant ~cat ~name ~node ~ts ~dur:0 a
  | Emit_counter (name, node, ts, v, a) ->
    Sink.counter s ~name ~node ~ts v;
    emit_args a;
    model_emit m Sink.Counter ~cat:"counter" ~name ~node ~ts ~dur:0
      (("value", Sink.Int v) :: a)
  | Burst n ->
    for i = 1 to n do
      let cat, name, node, ts, a = burst_instant i in
      Sink.instant s ~cat ~name ~node ~ts;
      emit_args a;
      model_emit m Sink.Instant ~cat ~name ~node ~ts ~dur:0 a
    done
  | Set_cats l ->
    Sink.set_categories s l;
    m.m_cats <- l
  | Set_spans_only b ->
    Sink.set_spans_only s b;
    m.m_spans_only <- b
  | Attach ->
    let w =
      {
        Sink.write =
          (fun sink row -> ignore (Dpa_util.Dynarray.add got (Sink.event sink row)));
        flush = ignore;
        close = ignore;
      }
    in
    if m.m_writer then
      match Sink.attach_writer s w with
      | () -> QCheck.Test.fail_report "second attach accepted"
      | exception Invalid_argument _ -> ()
    else begin
      Sink.attach_writer s w;
      m.m_writer <- true
    end
  | Flush ->
    Sink.flush_writer s;
    model_flush m
  | Close ->
    Sink.close_writer s;
    model_flush m;
    m.m_writer <- false

let check_sink_against_model s m got checked =
  let expect = List.sort by_ts_seq (List.rev_append m.m_spans m.m_ring) in
  let counts =
    [
      ("emitted", Sink.emitted s, List.length m.m_spans + m.m_written);
      ("dropped", Sink.dropped s, m.m_dropped);
      ("filtered", Sink.filtered s, m.m_filtered);
      ("streamed", Sink.streamed s, m.m_streamed);
    ]
  in
  List.iter
    (fun (what, got, want) ->
      if got <> want then
        QCheck.Test.fail_reportf "%s: sink %d, model %d" what got want)
    counts;
  if Sink.events s <> expect then QCheck.Test.fail_report "events differ";
  (* Only what was streamed since the last check needs comparing. *)
  let n = Dpa_util.Dynarray.length m.m_out in
  if Dpa_util.Dynarray.length got <> n then
    QCheck.Test.fail_report "streamed counts differ";
  for i = !checked to n - 1 do
    if Dpa_util.Dynarray.get got i <> Dpa_util.Dynarray.get m.m_out i then
      QCheck.Test.fail_reportf "streamed event %d differs" i
  done;
  checked := n

let qcheck_sink_model =
  QCheck.Test.make ~count:80
    ~name:"sink: rows, ring window and stream match the list model"
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap
           (String.concat "; " (List.map show_sink_op ops)))
       gen_sink_case)
    (fun (cap, ops) ->
      let s = Sink.create ~capacity:cap () in
      let m =
        {
          m_cap = cap;
          m_spans = [];
          m_ring = [];
          m_written = 0;
          m_dropped = 0;
          m_filtered = 0;
          m_seq = 0;
          m_cats = None;
          m_spans_only = false;
          m_writer = false;
          m_pending = [];
          m_out = Dpa_util.Dynarray.create ();
          m_streamed = 0;
        }
      in
      let got = Dpa_util.Dynarray.create () and checked = ref 0 in
      List.iter
        (fun op ->
          apply_sink_op s m got op;
          check_sink_against_model s m got checked)
        ops;
      true)

(* --- flush order --------------------------------------------------------- *)

(* Timestamps that stress the radix order: duplicates, negatives, and the
   extremes, so that a segment's range can overflow an int. *)
let gen_flush_ts =
  QCheck.Gen.(
    oneof
      [
        int_range (-3) 3;
        int;
        map (fun k -> k lsl 40) (int_range (-4) 4);
        oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0 ];
      ])

(* Segments of (is a span, ts) rows, flushed one after another: empty and
   single-row segments included, and some long enough to fill every
   bucket of a radix pass. *)
let gen_flush_case =
  QCheck.Gen.(
    list_size (int_range 0 5)
      (list_size
         (oneof [ return 0; return 1; int_range 2 40; int_range 2000 3000 ])
         (pair bool gen_flush_ts)))

let emit_flush_row s (is_span, ts) =
  if is_span then Sink.span s ~cat:"c" ~name:"s" ~node:0 ~ts ~dur:1
  else Sink.instant s ~cat:"c" ~name:"i" ~node:1 ~ts

let qcheck_flush_order =
  QCheck.Test.make ~count:150
    ~name:"flush: each segment in (ts, seq) order, streamed as the snapshot"
    (QCheck.make
       ~print:(fun segs ->
         String.concat " | "
           (List.map
              (fun seg ->
                String.concat " "
                  (List.map
                     (fun (sp, ts) ->
                       (if sp then "s" else "i") ^ string_of_int ts)
                     seg))
              segs))
       gen_flush_case)
    (fun segs ->
      (* Through a recording writer, one flush per segment, against a
         reference [List.stable_sort] of that segment's events. *)
      let s = Sink.create () and got = ref [] in
      Sink.attach_writer s
        {
          Sink.write = (fun sink row -> got := Sink.event sink row :: !got);
          flush = ignore;
          close = ignore;
        };
      let next = ref 0 in
      let expect =
        List.concat_map
          (fun seg ->
            let evs =
              List.map
                (fun (is_span, ts) ->
                  emit_flush_row s (is_span, ts);
                  let seq = !next in
                  incr next;
                  let kind, name, node, dur =
                    if is_span then (Sink.Span, "s", 0, 1)
                    else (Sink.Instant, "i", 1, 0)
                  in
                  { Sink.kind; name; cat = "c"; node; ts; dur; args = []; seq })
                seg
            in
            Sink.flush_writer s;
            List.stable_sort by_ts_seq evs)
          segs
      in
      if List.rev !got <> expect then
        QCheck.Test.fail_report "flushed order differs from the reference";
      (* The same rows as one segment, through the real writer: the file
         is the snapshot export of the same sink. *)
      let s = Sink.create () in
      let path = Filename.temp_file "test_obs" ".jsonl" in
      Sink.attach_writer s (Export.jsonl_writer (open_out_bin path));
      List.iter (List.iter (emit_flush_row s)) segs;
      Sink.close_writer s;
      let ic = open_in_bin path in
      let stream = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      if stream <> jsonl s then
        QCheck.Test.fail_report "the stream differs from the snapshot export";
      true)

let test_chunked_get_range () =
  let module C = Dpa_obs.Chunked in
  let c = C.create () in
  for i = 0 to C.chunk_size + 9 do
    C.push c i
  done;
  let fails i msg =
    match C.get c i with
    | v -> Alcotest.failf "get %d gave %d" i v
    | exception Invalid_argument m -> Alcotest.(check string) "message" msg m
  in
  fails (C.chunk_size + 10)
    "Chunked.get: position 4106 outside the live range [0, 4106)";
  fails (-1) "Chunked.get: position -1 outside the live range [0, 4106)";
  C.release c C.chunk_size;
  Alcotest.(check int) "kept after release" (C.chunk_size + 3)
    (C.get c (C.chunk_size + 3));
  fails 5 "Chunked.get: position 5 outside the live range [4096, 4106)"

(* --- allocation ----------------------------------------------------------- *)

(* The observed path's share of the allocation contract: minor-heap words
   per emitted event over a DPA force phase with a sink, a causal graph and
   a writer to a null consumer, as [--events --critical-path] sets them up.
   The difference between a phase of 512 bodies and one of 256 cancels the
   per-phase set-up; the large chunks of the columns go straight to the
   major heap. The boxed-record sink the columns replaced allocated 21.1
   words per event here; the bound is a third of that. *)
(* Minor words over a DPA force phase of [n] bodies with a sink, a causal
   graph and the writer [writer ()] attached, measured on a second run,
   with the events emitted and streamed. *)
let observed_phase_words ~writer n =
  let bodies = Dpa_bh.Plummer.generate ~n ~seed:17 in
  let tree =
    Dpa_bh.Bh_global.distribute (Dpa_bh.Octree.build bodies) ~nnodes:4
  in
  let run () =
    let sink = Sink.create () in
    Sink.set_causal sink (Some (Dpa_obs.Causal.create ()));
    Sink.attach_writer sink (writer ());
    let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:4) in
    Dpa_sim.Engine.set_sink engine (Some sink);
    let w0 = Gc.minor_words () in
    ignore
      (Dpa_bh.Bh_run.force_phase ~engine ~tree ~bodies
         ~params:Dpa_bh.Bh_force.default_params
         (Dpa_baselines.Variant.dpa ~strip_size:16 ()));
    Sink.close_writer sink;
    (Gc.minor_words () -. w0, Sink.emitted sink, Sink.streamed sink)
  in
  ignore (run ());
  run ()

let null_writer () =
  { Sink.write = (fun _ _ -> ()); flush = ignore; close = ignore }

let test_observed_phase_alloc () =
  let w1, e1, _ = observed_phase_words ~writer:null_writer 256 in
  let w2, e2, _ = observed_phase_words ~writer:null_writer 512 in
  let per_event = (w2 -. w1) /. float_of_int (e2 - e1) in
  if per_event > 7. then
    Alcotest.failf
      "%.2f minor words per observed event over %d events (bound 7)" per_event
      (e2 - e1)

(* The barrier flush's own share: the same phases streamed through the
   real [Export.jsonl_writer] to the null device, less the phases above,
   per streamed row — the sort and the serializer. The serializer that
   rebuilt each [Str] payload as a string allocated 0.215 words per row
   here; with cached heads and payloads escaped from their packed ints it
   allocates none (the sort's arrays are major-heap blocks). *)
let test_flush_alloc () =
  let jsonl () = Export.jsonl_writer (open_out_bin Filename.null) in
  let words writer n =
    let w, _, streamed = observed_phase_words ~writer n in
    (w, streamed)
  in
  let j1, s1 = words jsonl 256 and j2, s2 = words jsonl 512 in
  let n1, _ = words null_writer 256 and n2, _ = words null_writer 512 in
  let per_row = (j2 -. j1 -. (n2 -. n1)) /. float_of_int (s2 - s1) in
  if per_row > 0.05 then
    Alcotest.failf
      "%.3f minor words per row streamed through the JSONL writer over %d \
       rows (bound 0.05)"
      per_row (s2 - s1)

let suites =
  [
    ( "obs.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "numbers and unicode" `Quick
          test_json_numbers_and_unicode;
        Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
        Alcotest.test_case "member" `Quick test_json_member;
        QCheck_alcotest.to_alcotest qcheck_json_string_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_jsonl_matches_tree;
        QCheck_alcotest.to_alcotest qcheck_json_scalars_match_reference;
        QCheck_alcotest.to_alcotest qcheck_int_to;
        Alcotest.test_case "int_to at every digit boundary" `Quick
          test_int_to_boundaries;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counter" `Quick test_metrics_counter;
        Alcotest.test_case "histogram percentiles" `Quick test_metrics_histogram;
        Alcotest.test_case "histogram edges" `Quick test_metrics_histogram_edges;
        Alcotest.test_case "json shape" `Quick test_metrics_json_shape;
      ] );
    ( "obs.sink",
      [
        Alcotest.test_case "ring overwrites oldest" `Quick
          test_sink_ring_overwrites;
        Alcotest.test_case "ring wrap boundaries" `Quick
          test_sink_ring_wrap_boundaries;
        Alcotest.test_case "events merge is (ts, seq)-stable" `Quick
          test_events_stable_merge;
        Alcotest.test_case "streaming writer" `Quick test_streaming_writer;
        Alcotest.test_case "meta" `Quick test_sink_meta;
        Alcotest.test_case "global pickup by Engine.create" `Quick
          test_global_sink_pickup;
        QCheck_alcotest.to_alcotest qcheck_sink_model;
        QCheck_alcotest.to_alcotest qcheck_flush_order;
        Alcotest.test_case "chunked get names the live range" `Quick
          test_chunked_get_range;
      ] );
    ( "obs.alloc",
      [
        Alcotest.test_case "observed DPA phase" `Quick
          test_observed_phase_alloc;
        Alcotest.test_case "barrier flush through the JSONL writer" `Quick
          test_flush_alloc;
      ] );
    ( "obs.export",
      [
        Alcotest.test_case "chrome trace valid" `Quick test_chrome_trace_valid;
        Alcotest.test_case "metrics export valid" `Quick
          test_metrics_export_valid;
        Alcotest.test_case "jsonl and profile" `Quick test_jsonl_and_profile;
        Alcotest.test_case "jsonl round-trips every kind" `Quick
          test_jsonl_roundtrip_kinds;
        Alcotest.test_case "jsonl writer serves a second sink" `Quick
          test_jsonl_writer_second_sink;
        Alcotest.test_case "profile mean with uneven nodes" `Quick
          test_profile_mean_uneven_nodes;
        Alcotest.test_case "profile strip-only rows" `Quick
          test_profile_strip_only_rows;
        Alcotest.test_case "profile json matches the stream" `Quick
          test_profile_json_matches_stream;
        Alcotest.test_case "writer matches snapshot export" `Quick
          test_writer_matches_snapshot_export;
        Alcotest.test_case "jsonl writer streams the snapshot" `Quick
          test_jsonl_writer_streams_snapshot;
        Alcotest.test_case "observing is transparent" `Quick
          test_observing_is_transparent;
      ] );
    ( "core.stats",
      [
        Alcotest.test_case "merge edge cases" `Quick test_stats_merge_edges;
        Alcotest.test_case "to_json" `Quick test_stats_to_json;
      ] );
  ]
