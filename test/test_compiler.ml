open Dpa_compiler
open Dpa_sim

let test_validate_catches_bad_arity () =
  let p =
    {
      Ast.funcs =
        [
          {
            Ast.fname = "f";
            params = [ { Ast.pname = "x"; pclass = None } ];
            body = [ Ast.Call ("f", []) ];
          };
        ];
    }
  in
  (match Ast.validate p with
  | () -> Alcotest.fail "expected Illegal"
  | exception Ast.Illegal _ -> ())

let test_validate_catches_touch_in_while () =
  let p =
    {
      Ast.funcs =
        [
          {
            Ast.fname = "f";
            params = [ { Ast.pname = "p"; pclass = Some (Ast.Global 0) } ];
            body =
              [ Ast.While (Ast.Num 1., [ Ast.Load_field ("v", "p", 0) ]) ];
          };
        ];
    }
  in
  (match Ast.validate p with
  | () -> Alcotest.fail "expected Illegal"
  | exception Ast.Illegal _ -> ())

let test_alias_propagates_through_load_ptr () =
  let f = Ast.func Programs.list_sum "sum_list" in
  let env = Alias.infer Programs.list_sum f in
  Alcotest.(check bool) "q has p's class" true
    (Alias.class_of env "q" = Some (Ast.Global 0))

let test_alias_rejects_numeric_deref () =
  let p =
    {
      Ast.funcs =
        [
          {
            Ast.fname = "f";
            params = [ { Ast.pname = "x"; pclass = None } ];
            body = [ Ast.Load_field ("v", "x", 0) ];
          };
        ];
    }
  in
  (match Alias.check p with
  | () -> Alcotest.fail "expected Illegal"
  | exception Ast.Illegal _ -> ())

let test_partition_list_sum () =
  let info = Partition.analyze Programs.list_sum (Ast.func Programs.list_sum "sum_list") in
  (* One spawn site: the first touch of p. The Load_ptr of p reuses the
     fetched object — transitive expansion keeps it in the same thread. *)
  Alcotest.(check int) "static threads" 2 info.Partition.static_threads;
  match info.Partition.spawn_sites with
  | [ s ] ->
    Alcotest.(check string) "label" "p" s.Partition.label;
    Alcotest.(check (list string)) "no hoist partners" [] s.Partition.hoisted
  | _ -> Alcotest.fail "expected one spawn site"

let test_partition_pair_sum_hoists () =
  let info = Partition.analyze Programs.pair_sum (Ast.func Programs.pair_sum "sum_pair") in
  Alcotest.(check int) "static threads" 2 info.Partition.static_threads;
  match info.Partition.spawn_sites with
  | [ s ] ->
    Alcotest.(check string) "label" "a" s.Partition.label;
    Alcotest.(check (list string)) "b hoisted" [ "b" ] s.Partition.hoisted
  | _ -> Alcotest.fail "expected one spawn site (b folded into a's alignment)"

let test_partition_tree_sum () =
  let info = Partition.analyze Programs.tree_sum (Ast.func Programs.tree_sum "sum_tree") in
  (* All four accesses to t (one field, two pointer loads) are one thread. *)
  Alcotest.(check int) "static threads" 2 info.Partition.static_threads

let machine nodes = Machine.t3d ~nodes

module I_dpa = Interp.Make (Dpa.Runtime)
module I_caching = Interp.Make (Dpa_baselines.Caching)

let run_list_sum_dpa ~nnodes ~len =
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let head =
    Programs.build_list heaps ~length:len
      ~value:(fun i -> float_of_int (i + 1))
      ~owner:(fun i -> i mod nnodes)
  in
  let c = I_dpa.compile Programs.list_sum in
  let engine = Engine.create (machine nnodes) in
  let items node =
    if node = 0 then
      [| I_dpa.item c ~entry:"sum_list" ~args:[ Value.Ptr head ] |]
    else [||]
  in
  let breakdown, stats =
    Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items
  in
  (I_dpa.accumulator c "sum", breakdown, stats)

let test_interp_list_sum () =
  let len = 40 in
  let sum, _, _ = run_list_sum_dpa ~nnodes:3 ~len in
  Alcotest.(check (float 1e-9)) "sum 1..40" (float_of_int (len * (len + 1) / 2)) sum

let test_interp_list_sum_single_node () =
  let sum, _, stats = run_list_sum_dpa ~nnodes:1 ~len:25 in
  Alcotest.(check (float 1e-9)) "sum" 325. sum;
  Alcotest.(check int) "no fetches" 0 stats.Dpa.Dpa_stats.spawns

let test_interp_tree_sum_all_runtimes () =
  let depth = 6 in
  let ncells = (1 lsl depth) - 1 in
  let expected =
    (* value i = i+1 for i in 0..ncells-1 *)
    float_of_int (ncells * (ncells + 1) / 2)
  in
  let run_dpa () =
    let heaps = Dpa_heap.Heap.cluster ~nnodes:4 in
    let root =
      Programs.build_tree heaps ~depth
        ~value:(fun i -> float_of_int (i + 1))
        ~owner:(fun i -> i mod 4)
    in
    let c = I_dpa.compile Programs.tree_sum in
    let engine = Engine.create (machine 4) in
    let items node =
      if node = 0 then
        [| I_dpa.item c ~entry:"sum_tree" ~args:[ Value.Ptr root ] |]
      else [||]
    in
    ignore (Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items);
    I_dpa.accumulator c "sum"
  in
  let run_caching () =
    let heaps = Dpa_heap.Heap.cluster ~nnodes:4 in
    let root =
      Programs.build_tree heaps ~depth
        ~value:(fun i -> float_of_int (i + 1))
        ~owner:(fun i -> i mod 4)
    in
    let c = I_caching.compile Programs.tree_sum in
    let engine = Engine.create (machine 4) in
    let items node =
      if node = 0 then
        [| I_caching.item c ~entry:"sum_tree" ~args:[ Value.Ptr root ] |]
      else [||]
    in
    ignore
      (Dpa_baselines.Caching.run_phase ~engine ~heaps ~capacity:64 ~items ());
    I_caching.accumulator c "sum"
  in
  Alcotest.(check (float 1e-9)) "dpa" expected (run_dpa ());
  Alcotest.(check (float 1e-9)) "caching" expected (run_caching ())

let test_interp_pair_sum_hoist_batches () =
  (* Both pointers live on node 1; hoisting must fetch them in one request
     message. *)
  let heaps = Dpa_heap.Heap.cluster ~nnodes:2 in
  let a = Dpa_heap.Heap.alloc heaps.(1) ~floats:[| 3. |] ~ptrs:[||] in
  let b = Dpa_heap.Heap.alloc heaps.(1) ~floats:[| 4. |] ~ptrs:[||] in
  let c = I_dpa.compile Programs.pair_sum in
  let engine = Engine.create (machine 2) in
  let items node =
    if node = 0 then
      [| I_dpa.item c ~entry:"sum_pair" ~args:[ Value.Ptr a; Value.Ptr b ] |]
    else [||]
  in
  let breakdown, stats =
    Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items
  in
  Alcotest.(check (float 1e-9)) "sum" 7. (I_dpa.accumulator c "sum");
  Alcotest.(check int) "one aggregated message" 1
    stats.Dpa.Dpa_stats.request_msgs;
  Alcotest.(check int) "two objects in it" 2 stats.Dpa.Dpa_stats.requests;
  (* The schedule itself: one request and its bulk reply. *)
  Alcotest.(check int) "modelled elapsed ns" 21316
    breakdown.Breakdown.elapsed_ns;
  Alcotest.(check int) "messages" 2 breakdown.Breakdown.msgs

let test_interp_while_loop () =
  let p =
    {
      Ast.funcs =
        [
          {
            Ast.fname = "count";
            params = [ { Ast.pname = "n"; pclass = None } ];
            body =
              [
                Ast.Let ("i", Ast.Num 0.);
                Ast.While
                  ( Ast.Binop (Ast.Lt, Ast.Var "i", Ast.Var "n"),
                    [
                      Ast.Accum ("total", Ast.Var "i");
                      Ast.Let ("i", Ast.Binop (Ast.Add, Ast.Var "i", Ast.Num 1.));
                    ] );
              ];
          };
        ];
    }
  in
  let heaps = Dpa_heap.Heap.cluster ~nnodes:1 in
  let c = I_dpa.compile p in
  let engine = Engine.create (machine 1) in
  let items _ = [| I_dpa.item c ~entry:"count" ~args:[ Value.Num 10. ] |] in
  let breakdown, _ =
    Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items
  in
  Alcotest.(check (float 1e-9)) "sum 0..9" 45. (I_dpa.accumulator c "total");
  (* 40 ns for each of the 2 + 20 statements run and each of the 11 loop
     tests: 33 charges. *)
  Alcotest.(check int) "modelled elapsed ns" 1320 breakdown.Breakdown.elapsed_ns;
  Alcotest.(check int) "messages" 0 breakdown.Breakdown.msgs

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_pretty_roundtrip_smoke () =
  let s = Format.asprintf "%a" Pretty.pp_program Programs.tree_sum in
  Alcotest.(check bool) "mentions function" true (contains s "sum_tree");
  let info =
    Partition.analyze Programs.pair_sum (Ast.func Programs.pair_sum "sum_pair")
  in
  let s = Format.asprintf "%a" Pretty.pp_info info in
  Alcotest.(check bool) "mentions hoist" true (contains s "hoisting b")

let suites =
  [
    ( "compiler.validate",
      [
        Alcotest.test_case "bad arity" `Quick test_validate_catches_bad_arity;
        Alcotest.test_case "touch in while" `Quick
          test_validate_catches_touch_in_while;
      ] );
    ( "compiler.alias",
      [
        Alcotest.test_case "propagation" `Quick
          test_alias_propagates_through_load_ptr;
        Alcotest.test_case "numeric deref rejected" `Quick
          test_alias_rejects_numeric_deref;
      ] );
    ( "compiler.partition",
      [
        Alcotest.test_case "list_sum" `Quick test_partition_list_sum;
        Alcotest.test_case "pair_sum hoists" `Quick
          test_partition_pair_sum_hoists;
        Alcotest.test_case "tree_sum" `Quick test_partition_tree_sum;
      ] );
    ( "compiler.interp",
      [
        Alcotest.test_case "list sum (dpa)" `Quick test_interp_list_sum;
        Alcotest.test_case "list sum single node" `Quick
          test_interp_list_sum_single_node;
        Alcotest.test_case "tree sum all runtimes" `Quick
          test_interp_tree_sum_all_runtimes;
        Alcotest.test_case "pair hoist batches" `Quick
          test_interp_pair_sum_hoist_batches;
        Alcotest.test_case "while loop" `Quick test_interp_while_loop;
        Alcotest.test_case "pretty smoke" `Quick test_pretty_roundtrip_smoke;
      ] );
  ]

(* --- conc blocks -------------------------------------------------------- *)

let gp = Some (Ast.Global 0)

let test_conc_join () =
  (* A conc block joins before the following statement runs. *)
  let p =
    {
      Ast.funcs =
        [
          {
            Ast.fname = "pair";
            params = [ { Ast.pname = "a"; pclass = gp }; { Ast.pname = "b"; pclass = gp } ];
            body =
              [
                Ast.Conc
                  [ Ast.Load_field ("x", "a", 0); Ast.Load_field ("y", "b", 0) ];
                Ast.Accum ("sum", Ast.Binop (Ast.Add, Ast.Var "x", Ast.Var "y"));
              ];
          };
        ];
    }
  in
  let heaps = Dpa_heap.Heap.cluster ~nnodes:3 in
  let a = Dpa_heap.Heap.alloc heaps.(1) ~floats:[| 5. |] ~ptrs:[||] in
  let b = Dpa_heap.Heap.alloc heaps.(2) ~floats:[| 6. |] ~ptrs:[||] in
  let c = I_dpa.compile p in
  let engine = Engine.create (machine 3) in
  let items node =
    if node = 0 then
      [| I_dpa.item c ~entry:"pair" ~args:[ Value.Ptr a; Value.Ptr b ] |]
    else [||]
  in
  ignore (Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items);
  Alcotest.(check (float 1e-9)) "joined before accum" 11.
    (I_dpa.accumulator c "sum")

let test_conc_tree_spawns_concurrently () =
  (* With conc recursion the two subtrees are outstanding at once. *)
  let heaps = Dpa_heap.Heap.cluster ~nnodes:2 in
  let root =
    Programs.build_tree heaps ~depth:8
      ~value:(fun _ -> 1.)
      ~owner:(fun i -> i mod 2)
  in
  let c = I_dpa.compile Programs.tree_sum in
  let engine = Engine.create (machine 2) in
  let items node =
    if node = 0 then [| I_dpa.item c ~entry:"sum_tree" ~args:[ Value.Ptr root ] |]
    else [||]
  in
  let _, stats =
    Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ()) ~items
  in
  Alcotest.(check (float 1e-9)) "count" 255. (I_dpa.accumulator c "sum");
  Alcotest.(check bool) "concurrency materialized" true
    (stats.Dpa.Dpa_stats.max_outstanding > 1)

let test_conc_partition_intersection () =
  (* Availability after a conc block is the intersection of its branches:
     a touch in only one arm does not make the pointer available after. *)
  let p =
    {
      Ast.funcs =
        [
          {
            Ast.fname = "f";
            params = [ { Ast.pname = "a"; pclass = gp } ];
            body =
              [
                Ast.Conc [ Ast.Load_field ("x", "a", 0); Ast.Let ("y", Ast.Num 1.) ];
                Ast.Load_field ("z", "a", 0);
              ];
          };
        ];
    }
  in
  let info = Partition.analyze p (Ast.func p "f") in
  (* Two spawn sites: inside the conc arm, and again after the block. *)
  Alcotest.(check int) "spawn sites" 2
    (List.length info.Partition.spawn_sites)

let test_pretty_prints_conc () =
  let s = Format.asprintf "%a" Pretty.pp_program Programs.tree_sum in
  Alcotest.(check bool) "conc keyword" true (contains s "conc {")

(* Each arm of a [conc] reads one of three same-class pointers, so the
   first arm's alignment point hoists the other two and the other arms
   read them again while those reads are in flight: each such variable
   then has two reads outstanding, each joining its own counter. Twelve
   items per node over objects on every node, in strips of four, so
   frames are recycled while other items' reads are still out. The
   result must be exact under DPA with reuse on and off and under
   software caching, and the schedule unchanged: each phase's modelled
   time and request count are pinned. *)
let conc_rereads =
  {
    Ast.funcs =
      [
        {
          Ast.fname = "rereads";
          params =
            [
              { Ast.pname = "a"; pclass = gp };
              { Ast.pname = "b"; pclass = gp };
              { Ast.pname = "c"; pclass = gp };
            ];
          body =
            [
              Ast.Conc
                [
                  Ast.Load_field ("x", "a", 0);
                  Ast.Load_field ("y", "b", 0);
                  Ast.Load_field ("z", "c", 0);
                ];
              Ast.Load_field ("w", "b", 1);
              Ast.Accum
                ( "sum",
                  Ast.Binop
                    ( Ast.Add,
                      Ast.Binop (Ast.Add, Ast.Var "x", Ast.Var "y"),
                      Ast.Binop (Ast.Add, Ast.Var "z", Ast.Var "w") ) );
            ];
        };
      ];
  }

let test_conc_rereads () =
  let nnodes = 3 and per = 8 and nitems = 12 in
  let heaps = Dpa_heap.Heap.cluster ~nnodes in
  let objs =
    Array.init nnodes (fun n ->
        Array.init per (fun i ->
            let v = float_of_int ((n * per) + i + 1) in
            Dpa_heap.Heap.alloc heaps.(n) ~floats:[| v; 100. *. v |] ~ptrs:[||]))
  in
  let args node i =
    let a = objs.((node + 1) mod nnodes).(i mod per)
    and b = objs.((node + 2) mod nnodes).(i * 3 mod per)
    and c = objs.(node).((i + 1) mod per) in
    [ a; b; c ]
  in
  let expected =
    let f p i = Dpa_heap.Heap.get_float heaps.(Dpa_heap.Gptr.node p) p i in
    let total = ref 0. in
    for node = 0 to nnodes - 1 do
      for i = 0 to nitems - 1 do
        match args node i with
        | [ a; b; c ] -> total := !total +. f a 0 +. f b 0 +. f c 0 +. f b 1
        | _ -> assert false
      done
    done;
    !total
  in
  let items item node =
    Array.init nitems (fun i ->
        item ~entry:"rereads"
          ~args:(List.map (fun p -> Value.Ptr p) (args node i)))
  in
  let dpa what config =
    let c = I_dpa.compile conc_rereads in
    let b, stats =
      Dpa.Runtime.run_phase
        ~engine:(Engine.create (machine nnodes))
        ~heaps ~config ~items:(items (I_dpa.item c))
    in
    Alcotest.(check (float 0.)) (what ^ " sum") expected
      (I_dpa.accumulator c "sum");
    (b.Breakdown.elapsed_ns, stats.Dpa.Dpa_stats.request_msgs)
  in
  let reuse = Dpa.Config.dpa ~strip_size:4 () in
  let no_reuse = { reuse with Dpa.Config.reuse = false } in
  let caching =
    let c = I_caching.compile conc_rereads in
    let b, stats =
      Dpa_baselines.Caching.run_phase
        ~engine:(Engine.create (machine nnodes))
        ~heaps ~capacity:64 ~items:(items (I_caching.item c)) ()
    in
    Alcotest.(check (float 0.)) "caching sum" expected
      (I_caching.accumulator c "sum");
    (b.Breakdown.elapsed_ns, stats.Dpa_baselines.Caching.misses)
  in
  Alcotest.(check (list (pair int int)))
    "modelled ns and requests: reuse on, reuse off, caching"
    [ (182832, 18); (226072, 18); (371920, 48) ]
    [ dpa "reuse on" reuse; dpa "reuse off" no_reuse; caching ]

let conc_suites =
  [
    ( "compiler.conc",
      [
        Alcotest.test_case "join before continuation" `Quick test_conc_join;
        Alcotest.test_case "tree spawns concurrently" `Quick
          test_conc_tree_spawns_concurrently;
        Alcotest.test_case "partition intersection" `Quick
          test_conc_partition_intersection;
        Alcotest.test_case "pretty prints conc" `Quick test_pretty_prints_conc;
        Alcotest.test_case "arms re-read a hoisted companion" `Quick
          test_conc_rereads;
      ] );
  ]

let suites = suites @ conc_suites

(* Hoisting is per alias class: pointers of different classes must get
   separate alignment points even when both are in scope. *)
let test_distinct_classes_not_hoisted () =
  let p =
    {
      Ast.funcs =
        [
          {
            Ast.fname = "g";
            params =
              [
                { Ast.pname = "a"; pclass = Some (Ast.Global 0) };
                { Ast.pname = "b"; pclass = Some (Ast.Global 1) };
              ];
            body =
              [
                Ast.Load_field ("x", "a", 0);
                Ast.Load_field ("y", "b", 0);
                Ast.Accum ("s", Ast.Binop (Ast.Add, Ast.Var "x", Ast.Var "y"));
              ];
          };
        ];
    }
  in
  let info = Partition.analyze p (Ast.func p "g") in
  Alcotest.(check int) "two spawn sites" 2
    (List.length info.Partition.spawn_sites);
  List.iter
    (fun s ->
      Alcotest.(check (list string)) "nothing hoisted" [] s.Partition.hoisted)
    info.Partition.spawn_sites

let suites =
  suites
  @ [
      ( "compiler.classes",
        [
          Alcotest.test_case "distinct classes not hoisted" `Quick
            test_distinct_classes_not_hoisted;
        ] );
    ]

(* --- run-time errors name the function and the site --------------------- *)

(* Run [entry] of [src] with [args] on node 0 of [heaps] and return the
   message of the [Value.Eval_error] it raises. *)
let eval_error ?(heaps = Dpa_heap.Heap.cluster ~nnodes:1) src ~entry ~args =
  let c = I_dpa.compile (Parser.program src) in
  let engine = Engine.create (machine (Array.length heaps)) in
  let items node =
    if node = 0 then [| I_dpa.item c ~entry ~args |] else [||]
  in
  let config = Dpa.Config.dpa () in
  match Dpa.Runtime.run_phase ~engine ~heaps ~config ~items with
  | _ -> Alcotest.fail "expected Eval_error"
  | exception Value.Eval_error m -> m

(* One object with [floats] float fields and [ptrs] nil pointer fields, on
   node 0 of a one-node cluster. *)
let one_object ~floats ~ptrs =
  let heaps = Dpa_heap.Heap.cluster ~nnodes:1 in
  let p =
    Dpa_heap.Heap.alloc heaps.(0) ~floats:(Array.make floats 1.)
      ~ptrs:(Array.make ptrs Dpa_heap.Gptr.nil)
  in
  (heaps, Value.Ptr p)

let error_cases =
  [
    ( "float field out of range",
      (fun () ->
        let heaps, n = one_object ~floats:21 ~ptrs:20 in
        eval_error ~heaps
          "func update_node(n: global ptr<0>) { v = n->f[21]; }"
          ~entry:"update_node" ~args:[ n ]),
      "update_node: float field 21 of n out of range (object has 21 floats)" );
    ( "pointer field out of range",
      (fun () ->
        let heaps, p = one_object ~floats:1 ~ptrs:1 in
        eval_error ~heaps "func f(p: global ptr<0>) { q = p->ptr[2]; }"
          ~entry:"f" ~args:[ p ]),
      "f: pointer field 2 of p out of range (object has 1 pointer)" );
    ( "unbound variable",
      (fun () ->
        eval_error "func f(n: num) { y = x + n; }" ~entry:"f"
          ~args:[ Value.Num 1. ]),
      "f: unbound variable x" );
    ( "arity mismatch",
      (fun () ->
        eval_error "func g(a: num) { }" ~entry:"g"
          ~args:[ Value.Num 1.; Value.Num 2. ]),
      "arity mismatch calling g: 2 arguments for 1 parameter" );
    ( "boolean operand",
      (fun () ->
        eval_error "func f(a: num) { b = a < 1; c = b + 1; }" ~entry:"f"
          ~args:[ Value.Num 0. ]),
      "f: b: expected a number, got a boolean" );
    ( "pointer condition",
      (fun () ->
        let heaps, p = one_object ~floats:1 ~ptrs:0 in
        eval_error ~heaps "func f(p: global ptr<0>) { if p { } }" ~entry:"f"
          ~args:[ p ]),
      "f: p: a pointer is not a condition" );
    ( "error in a callee",
      (fun () ->
        eval_error
          "func f(n: num) { g(n); } func g(m: num) { s += -(m < 2); }"
          ~entry:"f" ~args:[ Value.Num 1. ]),
      "g: (m < 2): expected a number, got a boolean" );
    ( "number dereferenced",
      (fun () ->
        eval_error "func f(p: global ptr<0>) { v = p->f[0]; }" ~entry:"f"
          ~args:[ Value.Num 1. ]),
      "f: p: expected a pointer" );
    ( "negated boolean",
      (fun () ->
        eval_error "func f(a: num) { b = a < 1; c = -b; }" ~entry:"f"
          ~args:[ Value.Num 0. ]),
      "f: b: expected a number, got a boolean" );
    ( "not of a pointer",
      (fun () ->
        let heaps, p = one_object ~floats:1 ~ptrs:0 in
        eval_error ~heaps "func f(p: global ptr<0>) { b = !p; }" ~entry:"f"
          ~args:[ p ]),
      "f: p: a pointer is not a condition" );
    ( "is_nil of a number",
      (fun () ->
        eval_error "func f(a: num) { b = is_nil(a + 1); }" ~entry:"f"
          ~args:[ Value.Num 0. ]),
      "f: (a + 1): expected a pointer" );
    ( "pointer operand of <",
      (fun () ->
        let heaps, p = one_object ~floats:1 ~ptrs:0 in
        eval_error ~heaps "func f(p: global ptr<0>) { b = 1 < p; }" ~entry:"f"
          ~args:[ p ]),
      "f: p: expected a number, got a pointer" );
    ( "both operands of + wrong",
      (fun () ->
        let heaps, p = one_object ~floats:1 ~ptrs:0 in
        eval_error ~heaps
          "func f(p: global ptr<0>, a: num) { b = a < 1; c = p + b; }"
          ~entry:"f" ~args:[ p; Value.Num 0. ]),
      "f: p: expected a number, got a pointer" );
    ( "short-circuited &&",
      (fun () ->
        eval_error
          "func f(a: num) { b = a < 0 && x; if b { } else { y = stop; } }"
          ~entry:"f" ~args:[ Value.Num 0. ]),
      "f: unbound variable stop" );
    ( "short-circuited ||",
      (fun () ->
        let heaps, p = one_object ~floats:1 ~ptrs:0 in
        eval_error ~heaps
          "func f(a: num, p: global ptr<0>) { b = 0 < a || p; if b { y = stop; } }"
          ~entry:"f" ~args:[ Value.Num 1.; p ]),
      "f: unbound variable stop" );
    ( "unbound variable in a while test",
      (fun () ->
        eval_error "func f(a: num) { while i < a { i = i + 1; } }" ~entry:"f"
          ~args:[ Value.Num 3. ]),
      "f: unbound variable i" );
  ]

let error_suites =
  [
    ( "compiler.errors",
      List.map
        (fun (name, run, expected) ->
          Alcotest.test_case name `Quick (fun () ->
              Alcotest.(check string) "message" expected (run ())))
        error_cases );
  ]

(* --- allocation ---------------------------------------------------------- *)

(* Minor words of the second of two runs of the DPA phase [items] gives
   every node; the first run warms the runtime's arrays and the
   interpreter's frames. *)
let phase_words ~nnodes heaps items =
  let run () =
    Dpa.Runtime.run_phase
      ~engine:(Engine.create (machine nnodes))
      ~heaps
      ~config:(Dpa.Config.dpa ~strip_size:50 ())
      ~items:(fun node -> items.(node))
  in
  ignore (run ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (run ()));
  Gc.minor_words () -. w0

(* The EM3D update items, [n] per node, over the first [n] E-nodes of each
   node. *)
let em3d_items c g ~nnodes ~nmax n =
  Array.init nnodes (fun node ->
      Array.init n (fun i ->
          I_dpa.item c ~entry:"update_node"
            ~args:[ Value.Ptr g.Em3d.e_nodes.((node * nmax) + i) ]))

let em3d_graph ~nnodes ~nmax ~degree =
  Em3d.build ~nnodes ~e_per_node:nmax ~h_per_node:nmax ~degree
    ~remote_frac:0.25 ~seed:7

(* The interpreter's share of the allocation contract: the EM3D update
   (degree 20, a quarter of the neighbours remote) on two nodes, in minor
   words per item. The difference between a phase of [nmax] items per node
   and one of [nmax / 2] cancels the per-phase set-up; the item closures
   are built outside the measured runs. The tree-walking interpreter
   allocated 3483 words per item here, the compiled one over [Value.t]
   frames 659.0, the one over typed register frames 167.0, and this one,
   whose frames are recycled and whose reads reuse one continuation per
   frame variable, 8.0; the bound is 1.5 times that. *)
let test_em3d_interp_alloc () =
  let nnodes = 2 and nmax = 512 and degree = 20 in
  let g = em3d_graph ~nnodes ~nmax ~degree in
  let c = I_dpa.compile (Em3d.update_program ~degree) in
  let measure n =
    phase_words ~nnodes g.Em3d.heaps (em3d_items c g ~nnodes ~nmax n)
  in
  let w1 = measure (nmax / 2) in
  let w2 = measure nmax in
  let per_item = (w2 -. w1) /. float_of_int (nnodes * (nmax - (nmax / 2))) in
  let bound = 12. in
  if per_item > bound then
    Alcotest.failf "%.1f minor words per EM3D item (bound %.0f)" per_item bound

(* Per interpreted read: the same items read the first 10 of their 20
   neighbours in one phase and all 20 in the other, so the difference
   cancels every per-item and per-phase cost and leaves 10 reads per item
   (the neighbour's object, a quarter of them remote). A read reuses its
   variable's continuation, so the interpreter allocates nothing for it:
   this reads 0.25 words per read, about what the runtime's fresh remote
   fetches among them may allocate (core.alloc), where a closure per read
   read 7.25. The bound is 1.5 times the reading. *)
let test_interp_read_alloc () =
  let nnodes = 2 and nmax = 256 and degree = 20 in
  let g = em3d_graph ~nnodes ~nmax ~degree in
  let measure d =
    let c = I_dpa.compile (Em3d.update_program ~degree:d) in
    phase_words ~nnodes g.Em3d.heaps (em3d_items c g ~nnodes ~nmax nmax)
  in
  let w10 = measure 10 in
  let w20 = measure 20 in
  let per_read = (w20 -. w10) /. float_of_int (nnodes * nmax * 10) in
  let bound = 0.4 in
  if per_read > bound then
    Alcotest.failf "%.2f minor words per interpreted read (bound %.1f)"
      per_read bound

let suites =
  suites @ error_suites
  @ [
      ( "compiler.alloc",
        [
          Alcotest.test_case "EM3D update on 2 nodes" `Quick
            test_em3d_interp_alloc;
          Alcotest.test_case "one interpreted read" `Quick test_interp_read_alloc;
        ] );
    ]
