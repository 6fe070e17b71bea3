open Dpa_compiler

let pretty p = Format.asprintf "%a" Pretty.pp_program p
let pretty_expr e = Format.asprintf "%a" Pretty.pp_expr e

let test_parse_list_sum_source () =
  let p =
    Parser.program
      {|
      // the paper's list traversal
      func sum_list(p: global ptr<0>) {
        if is_nil(p) {
        } else {
          v = p->f[0];
          sum += v;
          q = p->ptr[0];
          sum_list(q);
        }
      }
      |}
  in
  (match p.Ast.funcs with
  | [ f ] ->
    Alcotest.(check string) "name" "sum_list" f.Ast.fname;
    Alcotest.(check int) "static threads" 2
      (Partition.analyze p f).Partition.static_threads
  | _ -> Alcotest.fail "expected one function");
  (* Identical partition to the programmatic version. *)
  let threads p =
    List.fold_left
      (fun a i -> a + i.Partition.static_threads)
      0 (Partition.analyze_program p)
  in
  Alcotest.(check int) "same threads as builder" (threads Programs.list_sum)
    (threads p)

let test_parse_expr_precedence () =
  let e = Parser.expr "1 + 2 * 3 < 4 && is_nil(x) || !y" in
  (* (((1 + (2*3)) < 4) && is_nil(x)) || (!y) *)
  match e with
  | Ast.Binop
      ( Ast.Or,
        Ast.Binop
          ( Ast.And,
            Ast.Binop (Ast.Lt, Ast.Binop (Ast.Add, Ast.Num 1., Ast.Binop (Ast.Mul, Ast.Num 2., Ast.Num 3.)), Ast.Num 4.),
            Ast.Is_nil (Ast.Var "x") ),
        Ast.Unop (Ast.Not, Ast.Var "y") ) ->
    ()
  | _ -> Alcotest.failf "wrong parse: %s" (pretty_expr e)

let test_parse_errors () =
  let bad_cases =
    [
      "func f( { }";
      "func f() { x = ; }";
      "func f() { if x { }";
      "func f() { y 3; }";
      "func f(p: ptr) { }";
      "not a program";
    ]
  in
  List.iter
    (fun src ->
      match Parser.program src with
      | _ -> Alcotest.failf "expected a parse error for %S" src
      | exception Parser.Parse_error _ -> ()
      | exception Ast.Illegal _ -> ())
    bad_cases

let test_parse_error_position () =
  (match Parser.program "func f() {\n  x = ;\n}" with
  | _ -> Alcotest.fail "expected error"
  | exception Parser.Parse_error msg ->
    Alcotest.(check bool) ("mentions line 2: " ^ msg) true
      (String.length msg >= 6 && String.sub msg 0 6 = "line 2"))

let test_roundtrip_examples () =
  List.iter
    (fun (name, p) ->
      let s = pretty p in
      let p' = Parser.program s in
      Alcotest.(check string) (name ^ " fixpoint") s (pretty p'))
    [
      ("list_sum", Programs.list_sum);
      ("tree_sum", Programs.tree_sum);
      ("pair_sum", Programs.pair_sum);
      ("em3d", Em3d.update_program ~degree:3);
    ]

let test_parsed_program_runs () =
  let src =
    {|
    func count(n: num) {
      i = 0;
      while i < n {
        total += i * 2;
        i = i + 1;
      }
    }
    |}
  in
  let p = Parser.program src in
  let module I = Interp.Make (Dpa.Runtime) in
  let c = I.compile p in
  let heaps = Dpa_heap.Heap.cluster ~nnodes:1 in
  let engine = Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:1) in
  ignore
    (Dpa.Runtime.run_phase ~engine ~heaps ~config:(Dpa.Config.dpa ())
       ~items:(fun _ -> [| I.item c ~entry:"count" ~args:[ Value.Num 5. ] |]));
  Alcotest.(check (float 1e-9)) "0+2+4+6+8" 20. (I.accumulator c "total")

(* Random well-formed programs: printer -> parser -> printer fix point. *)
let num_expr_gen =
  QCheck.Gen.(
    sized_size (int_range 0 4) (fix (fun self n ->
        if n = 0 then
          oneof
            [
              map (fun i -> Ast.Num (float_of_int i)) (int_range 0 99);
              oneofl [ Ast.Var "x"; Ast.Var "y" ];
            ]
        else
          oneof
            [
              map (fun i -> Ast.Num (float_of_int i)) (int_range 0 99);
              oneofl [ Ast.Var "x"; Ast.Var "y" ];
              map3
                (fun op a b -> Ast.Binop (op, a, b))
                (oneofl
                   Ast.[ Add; Sub; Mul; Div; Lt; Le; Eq; And; Or ])
                (self (n / 2)) (self (n / 2));
              map (fun e -> Ast.Unop (Ast.Neg, e)) (self (n - 1));
              map (fun e -> Ast.Unop (Ast.Not, e)) (self (n - 1));
            ])))

let stmt_gen =
  QCheck.Gen.(
    sized_size (int_range 1 4) (fix (fun self n ->
        let block k = list_size (int_range 0 3) (self k) in
        if n = 0 then
          oneof
            [
              map (fun e -> Ast.Let ("x", e)) num_expr_gen;
              map (fun e -> Ast.Let ("y", e)) num_expr_gen;
              map (fun e -> Ast.Accum ("acc", e)) num_expr_gen;
              map (fun i -> Ast.Load_field ("x", "p", i)) (int_range 0 3);
              map (fun i -> Ast.Load_ptr ("q", "p", i)) (int_range 0 1);
              return (Ast.Call ("f", [ Ast.Var "x"; Ast.Var "p" ]));
            ]
        else
          oneof
            [
              map (fun e -> Ast.Let ("x", e)) num_expr_gen;
              map3
                (fun e a b -> Ast.If (e, a, b))
                num_expr_gen (block (n - 1)) (block (n - 1));
              map (fun b -> Ast.Conc b) (block (n - 1));
              map2
                (fun e b -> Ast.While (e, b))
                num_expr_gen
                (list_size (int_range 0 2)
                   (oneof
                      [
                        map (fun e -> Ast.Let ("y", e)) num_expr_gen;
                        map (fun e -> Ast.Accum ("acc", e)) num_expr_gen;
                      ]));
            ])))

let program_gen =
  QCheck.Gen.(
    map
      (fun body ->
        {
          Ast.funcs =
            [
              {
                Ast.fname = "f";
                params =
                  [
                    { Ast.pname = "x"; pclass = None };
                    { Ast.pname = "p"; pclass = Some (Ast.Global 0) };
                  ];
                body;
              };
            ];
        })
      (list_size (int_range 1 6) stmt_gen))

let qcheck_roundtrip =
  QCheck.Test.make ~name:"pretty -> parse -> pretty is a fix point" ~count:300
    (QCheck.make program_gen) (fun p ->
      match Ast.validate p with
      | exception Ast.Illegal _ -> QCheck.assume_fail ()
      | () -> (
        let s = pretty p in
        match Parser.program s with
        | p' -> pretty p' = s
        | exception Parser.Parse_error msg ->
          QCheck.Test.fail_reportf "parse error on:\n%s\n%s" s msg
        | exception Ast.Illegal msg ->
          QCheck.Test.fail_reportf "illegal on:\n%s\n%s" s msg))

let suites =
  [
    ( "compiler.parser",
      [
        Alcotest.test_case "list_sum source" `Quick test_parse_list_sum_source;
        Alcotest.test_case "precedence" `Quick test_parse_expr_precedence;
        Alcotest.test_case "errors" `Quick test_parse_errors;
        Alcotest.test_case "error position" `Quick test_parse_error_position;
        Alcotest.test_case "round trips" `Quick test_roundtrip_examples;
        Alcotest.test_case "parsed program runs" `Quick test_parsed_program_runs;
        QCheck_alcotest.to_alcotest qcheck_roundtrip;
      ] );
  ]
