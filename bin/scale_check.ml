(* CI validator for the BENCH_scale.json artifact (see `make scale-smoke`):
   checks that the a16 sweep's JSON is structurally sound — every gate row
   carries the measured and baseline words-per-body-step, its reduction
   factor is arithmetically consistent and clears the committed threshold,
   and every scale row reports non-negative wall/allocation/GC/wire
   numbers — and then asserts the runtime's hot-path contract directly:
   a strip-mined phase of local reads (with cheap threads, and with
   threads that each spend a whole poll quantum), and one of remote reads
   that almost all merge onto in-flight fetches, must not allocate per
   read (docs/PERFORMANCE.md).

   Usage: scale_check BENCH_scale.json *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("scale_check: " ^ s);
      exit 1)
    fmt

let member name j =
  match Dpa_obs.Json.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let num name j =
  match member name j with
  | Dpa_obs.Json.Float f -> f
  | Dpa_obs.Json.Int i -> float_of_int i
  | _ -> fail "field %S is not a number" name

let int_f name j =
  match member name j with
  | Dpa_obs.Json.Int i -> i
  | _ -> fail "field %S is not an int" name

let list_f name j =
  match member name j with
  | Dpa_obs.Json.List l -> l
  | _ -> fail "field %S is not a list" name

(* ---- BENCH_scale.json structure --------------------------------------- *)

let check_json path =
  let ic = try open_in path with Sys_error e -> fail "%s" e in
  let n = in_channel_length ic in
  let raw = really_input_string ic n in
  close_in ic;
  let j =
    match Dpa_obs.Json.parse raw with
    | Ok j -> j
    | Error e -> fail "%s: parse error: %s" path e
  in
  (match member "bench" j with
  | Dpa_obs.Json.Str "scale" -> ()
  | _ -> fail "%S is not a scale sweep" path);
  let threshold = num "gate_threshold_x" j in
  if threshold < 1. then fail "gate threshold %.2f < 1" threshold;
  let gate = list_f "gate" j in
  if gate = [] then fail "empty gate table";
  List.iteri
    (fun i row ->
      let ctx s = Printf.sprintf "gate[%d].%s" i s in
      if int_f "nodes" row <= 0 then fail "%s <= 0" (ctx "nodes");
      if int_f "bodies" row <= 0 then fail "%s <= 0" (ctx "bodies");
      if int_f "steps" row <= 0 then fail "%s <= 0" (ctx "steps");
      if num "wall_s" row < 0. then fail "%s < 0" (ctx "wall_s");
      if int_f "major_collections" row < 0 then
        fail "%s < 0" (ctx "major_collections");
      let words = num "words_per_body_step" row in
      let boxed = num "boxed_words_per_body_step" row in
      let red = num "reduction_x" row in
      if words <= 0. then fail "%s <= 0" (ctx "words_per_body_step");
      if boxed <= 0. then fail "%s <= 0" (ctx "boxed_words_per_body_step");
      if Float.abs (red -. (boxed /. words)) > 1e-6 *. red then
        fail "gate[%d]: reduction_x %.4f inconsistent with %.1f/%.1f" i red
          boxed words;
      if red < threshold then
        fail "gate[%d]: reduction %.2fx below the %.1fx threshold" i red
          threshold)
    gate;
  let scale = list_f "scale" j in
  if scale = [] then fail "empty scale table";
  List.iteri
    (fun i row ->
      let ctx s = Printf.sprintf "scale[%d].%s" i s in
      if int_f "nodes" row <= 0 then fail "%s <= 0" (ctx "nodes");
      if int_f "bodies" row <= 0 then fail "%s <= 0" (ctx "bodies");
      if num "wall_s" row < 0. then fail "%s < 0" (ctx "wall_s");
      if num "words_per_body" row < 0. then fail "%s < 0" (ctx "words_per_body");
      if int_f "major_collections" row < 0 then
        fail "%s < 0" (ctx "major_collections");
      if int_f "bytes_moved" row < 0 then fail "%s < 0" (ctx "bytes_moved"))
    scale;
  Printf.printf
    "scale_check: %s structurally sound (%d gate rows >= %.1fx, %d scale \
     rows)\n"
    path (List.length gate) threshold (List.length scale)

(* ---- hot-path allocation contract -------------------------------------- *)

(* Words allocated per read by the second of two runs of [run] (the first
   warms module initialisation and grows the runtime's arrays). *)
let words_per_read ~reads run =
  ignore (run ());
  let w0 = Gc.allocated_bytes () in
  let s = run () in
  let w1 = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity s);
  (w1 -. w0) /. 8. /. float_of_int reads

let gate ~what ~bound ~reads per_read =
  if per_read > bound then
    fail
      "%s allocates %.2f words per read (bound %.2f): the allocation-free \
       contract is broken"
      what per_read bound;
  Printf.printf
    "scale_check: %s allocates %.2f words per read (bound %.2f) over %d reads\n"
    what per_read bound reads

(* The harness must not allocate per read either: the accumulator is a
   float array (a [float ref] boxes on every [:=]), the field is loaded
   straight from the float pool (a float returned by a non-inlined call is
   boxed) and the continuation closure is hoisted out of the read loop.
   Each continuation charges [work] ns. *)
let phase ~work ~nnodes ~heaps ~nitems ~reads ~target =
  let acc = Array.make 1 0. in
  let k ctx view =
    Dpa.Runtime.charge ctx work;
    let h = (Dpa.Runtime.heaps ctx).(Dpa_heap.Gptr.node view) in
    acc.(0) <-
      acc.(0)
      +. Bigarray.Array1.get
           (Dpa_heap.Heap.float_pool h)
           (Dpa_heap.Heap.float_base h view)
  in
  fun () ->
    let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:nnodes) in
    let items node =
      Array.init nitems (fun item ->
          fun ctx ->
            for r = 0 to reads - 1 do
              Dpa.Runtime.read ctx (target ~node ~item ~r) k
            done)
    in
    ignore
      (Dpa.Runtime.run_phase ~engine ~heaps
         ~config:(Dpa.Config.dpa ~strip_size:16 ())
         ~items);
    acc.(0)

let alloc_objects heaps ~node n =
  Array.init n (fun slot ->
      Dpa_heap.Heap.alloc heaps.(node) ~floats:[| float_of_int slot |] ~ptrs:[||])

(* A phase of purely local reads exercises the strip hot path — spawn,
   ready-ring dispatch, continuation — with no wire traffic. On the flat
   heap the data path allocates nothing per read (the boxed heap paid a
   record copy-out each time, >= 10 words), and every poll quantum posts
   the same preallocated action. With [work] at one poll quantum each
   dispatch ends its quantum and posts the next, so that variant gates
   the per-quantum cost on its own. *)
let check_local_reads ~what ~work =
  let nobjs = 4096 and nitems = 512 and reads = 64 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes:1 in
  let ptrs = alloc_objects heaps ~node:0 nobjs in
  let run =
    phase ~work ~nnodes:1 ~heaps ~nitems ~reads
      ~target:(fun ~node:_ ~item ~r ->
        ptrs.(((item * 104729) + (r * 1299721)) mod nobjs))
  in
  let total = nitems * reads in
  gate ~what ~bound:0.5 ~reads:total (words_per_read ~reads:total run)

(* Two nodes whose items each read a handful of objects on the other node.
   A strip issues all its reads before any reply lands, so the first read
   of each object takes a fresh token and every later one merges onto it
   in M; the bulk reply then wakes the merged threads as one chain entry
   per token. Merges, wakes and chain dispatch allocate nothing; the
   residue is each fresh token's request and reply traffic, spread over
   the strip. *)
let check_merged_remote_reads () =
  let nnodes = 2 and nobjs = 8 and nitems = 512 and reads = 64 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let ptrs = Array.init nnodes (fun node -> alloc_objects heaps ~node nobjs) in
  let run =
    phase ~work:100 ~nnodes ~heaps ~nitems ~reads
      ~target:(fun ~node ~item ~r -> ptrs.(1 - node).((item + r) mod nobjs))
  in
  let total = nnodes * nitems * reads in
  gate ~what:"merged remote reads" ~bound:0.5 ~reads:total
    (words_per_read ~reads:total run)

let () =
  (match Sys.argv with
  | [| _; path |] -> check_json path
  | _ -> fail "usage: scale_check BENCH_scale.json");
  check_local_reads ~what:"strip hot path (local reads)" ~work:100;
  check_local_reads ~what:"quantum-bound local reads"
    ~work:(Dpa_sim.Machine.t3d ~nodes:1).Dpa_sim.Machine.poll_quantum_ns;
  check_merged_remote_reads ()
