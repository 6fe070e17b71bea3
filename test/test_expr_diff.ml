(* Differential test of the interpreter's expressions: random expression
   trees over number, boolean and pointer variables run as a one-item
   phase, against a reference evaluator over [Value.t] written here. Both
   must give bit-identical values or raise the same [Eval_error]. *)

open Dpa_compiler
open Dpa_heap

module I = Interp.Make (Dpa.Runtime)

(* --- reference semantics ------------------------------------------------ *)

let fail e m =
  raise
    (Value.Eval_error (Format.asprintf "f: %a: %s" Pretty.pp_expr e m))

let rec eval env e =
  match e with
  | Ast.Num x -> Value.Num x
  | Ast.Var v -> (
    match List.assoc_opt v env with
    | Some x -> x
    | None -> raise (Value.Eval_error ("f: unbound variable " ^ v)))
  | Ast.Unop (Ast.Neg, a) -> Value.Num (-.num env a)
  | Ast.Unop (Ast.Not, a) -> Value.Bool (not (cond env a))
  | Ast.Is_nil a -> Value.Bool (Gptr.is_nil (ptr env a))
  | Ast.Binop (Ast.And, a, b) -> Value.Bool (cond env a && cond env b)
  | Ast.Binop (Ast.Or, a, b) -> Value.Bool (cond env a || cond env b)
  | Ast.Binop (op, a, b) -> (
    let x = num env a in
    let y = num env b in
    match op with
    | Ast.Add -> Value.Num (x +. y)
    | Ast.Sub -> Value.Num (x -. y)
    | Ast.Mul -> Value.Num (x *. y)
    | Ast.Div -> Value.Num (x /. y)
    | Ast.Lt -> Value.Bool (x < y)
    | Ast.Le -> Value.Bool (x <= y)
    | Ast.Eq -> Value.Bool (x = y)
    | Ast.And | Ast.Or -> assert false)

and num env e =
  match eval env e with
  | Value.Num x -> x
  | Value.Bool _ -> fail e "expected a number, got a boolean"
  | Value.Ptr _ -> fail e "expected a number, got a pointer"

and cond env e =
  match eval env e with
  | Value.Bool b -> b
  | Value.Num x -> x <> 0.
  | Value.Ptr _ -> fail e "a pointer is not a condition"

and ptr env e =
  match eval env e with
  | Value.Ptr p -> p
  | Value.Num _ | Value.Bool _ -> fail e "expected a pointer"

(* --- the cases ------------------------------------------------------------ *)

(* [x] and [y] are numbers, [b] and [c] booleans, [p] a pointer and [q]
   nil; [u] is never bound. *)
type case = { x : float; y : float; e : Ast.expr }

let heaps = Heap.cluster ~nnodes:1
let obj = Heap.alloc heaps.(0) ~floats:[| 0. |] ~ptrs:[||]

let env case =
  [
    ("x", Value.Num case.x);
    ("y", Value.Num case.y);
    ("b", Value.Bool true);
    ("c", Value.Bool false);
    ("p", Value.Ptr obj);
    ("q", Value.Ptr Gptr.nil);
  ]

let gen_case =
  let open QCheck.Gen in
  let float = oneofl [ 0.; -0.; 1.; -2.5; 0.1; 3e300; nan; infinity ] in
  let leaf =
    frequency
      [
        (2, map (fun x -> Ast.Num x) float);
        ( 5,
          map
            (fun v -> Ast.Var v)
            (frequency
               (List.map (fun v -> (3, return v)) [ "x"; "y"; "b"; "c"; "p"; "q" ]
               @ [ (1, return "u") ])) );
      ]
  in
  let binop =
    oneofl
      Ast.[ Add; Sub; Mul; Div; Lt; Le; Eq; And; Or ]
  in
  let expr =
    fix
      (fun self n ->
        if n <= 0 then leaf
        else
          frequency
            [
              (1, leaf);
              ( 4,
                map3
                  (fun op a b -> Ast.Binop (op, a, b))
                  binop (self (n / 2)) (self (n / 2)) );
              ( 1,
                map2
                  (fun op a -> Ast.Unop (op, a))
                  (oneofl Ast.[ Neg; Not ])
                  (self (n - 1)) );
              (1, map (fun a -> Ast.Is_nil a) (self (n - 1)));
            ])
  in
  map3 (fun x y e -> { x; y; e }) float float (int_bound 12 >>= expr)

(* Every proper subexpression, then every expression with one child
   shrunk, so a failure shrinks to a minimal tree. *)
let rec shrink_expr e yield =
  let rebuild sub make = shrink_expr sub (fun s -> yield (make s)) in
  match e with
  | Ast.Num _ | Ast.Var _ -> ()
  | Ast.Unop (op, a) ->
    yield a;
    rebuild a (fun a -> Ast.Unop (op, a))
  | Ast.Is_nil a ->
    yield a;
    rebuild a (fun a -> Ast.Is_nil a)
  | Ast.Binop (op, a, b) ->
    yield a;
    yield b;
    rebuild a (fun a -> Ast.Binop (op, a, b));
    rebuild b (fun b -> Ast.Binop (op, a, b))

let print_case c =
  Format.asprintf "x = %h, y = %h: %a" c.x c.y Pretty.pp_expr c.e

let arb_case =
  QCheck.make ~print:print_case
    ~shrink:(fun c yield -> shrink_expr c.e (fun e -> yield { c with e }))
    gen_case

(* How each case is observed: the statements that consume the expression,
   and the accumulators the reference expects them to leave. A value is
   read both from a variable and as a direct operand. *)
let yes = [ Ast.Accum ("yes", Ast.Num 1.) ]
let no = [ Ast.Accum ("no", Ast.Num 1.) ]
let branch b = [ ((if b then "yes" else "no"), 1.) ]
let bound env e = ("r", eval env e) :: env

let observers =
  [
    ( [ Ast.Let ("r", Ast.Var "e"); Ast.Accum ("out", Ast.Var "r") ],
      fun env e -> [ ("out", num (bound env e) (Ast.Var "r")) ] );
    ([ Ast.Accum ("out", Ast.Var "e") ], fun env e -> [ ("out", num env e) ]);
    ([ Ast.If (Ast.Var "e", yes, no) ], fun env e -> branch (cond env e));
    ( [ Ast.Let ("r", Ast.Var "e"); Ast.If (Ast.Var "r", yes, no) ],
      fun env e -> branch (cond (bound env e) (Ast.Var "r")) );
    ( [ Ast.If (Ast.Is_nil (Ast.Var "e"), yes, no) ],
      fun env e -> branch (Gptr.is_nil (ptr env e)) );
  ]

(* Substitute the case's expression for the placeholder variable [e]. *)
let rec plug e = function
  | Ast.Var "e" -> e
  | (Ast.Num _ | Ast.Var _) as leaf -> leaf
  | Ast.Unop (op, a) -> Ast.Unop (op, plug e a)
  | Ast.Is_nil a -> Ast.Is_nil (plug e a)
  | Ast.Binop (op, a, b) -> Ast.Binop (op, plug e a, plug e b)

let plug_stmt e = function
  | Ast.Let (v, a) -> Ast.Let (v, plug e a)
  | Ast.Accum (v, a) -> Ast.Accum (v, plug e a)
  | Ast.If (a, t, f) -> Ast.If (plug e a, t, f)
  | s -> s

type outcome = Ok of (string * int64) list | Error of string

let show = function
  | Ok accs ->
    String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s = %h" k (Int64.float_of_bits v)) accs)
  | Error m -> "Eval_error " ^ m

let outcome f =
  match f () with
  | accs -> Ok (List.map (fun (k, v) -> (k, Int64.bits_of_float v)) accs)
  | exception Value.Eval_error m -> Error m

let run case stmts =
  let params =
    List.map (fun (v, _) -> { Ast.pname = v; pclass = None }) (env case)
  in
  let program =
    {
      Ast.funcs =
        [
          {
            Ast.fname = "f";
            params;
            body = List.map (plug_stmt case.e) stmts;
          };
        ];
    }
  in
  let c = I.compile program in
  let args = List.map snd (env case) in
  outcome (fun () ->
      ignore
        (Dpa.Runtime.run_phase
           ~engine:(Dpa_sim.Engine.create (Dpa_sim.Machine.t3d ~nodes:1))
           ~heaps ~config:(Dpa.Config.dpa ())
           ~items:(fun _ -> [| I.item c ~entry:"f" ~args |]));
      I.accumulators c)

let qcheck_expressions =
  QCheck.Test.make ~count:1000 ~name:"expressions match the reference"
    arb_case (fun case ->
      List.iter
        (fun (stmts, expect) ->
          let got = run case stmts in
          let want = outcome (fun () -> expect (env case) case.e) in
          if got <> want then
            QCheck.Test.fail_reportf "@[<v>%a@]@.interpreter: %s@.reference: %s"
              (Format.pp_print_list Pretty.pp_stmt)
              (List.map (plug_stmt case.e) stmts)
              (show got) (show want))
        observers;
      true)

(* The shrinker reaches a minimal tree: a property that fails on every
   expression holding a division shrinks to one division of two leaves. *)
let test_shrinks_to_minimal () =
  let rec has_div = function
    | Ast.Binop (Ast.Div, _, _) -> true
    | Ast.Binop (_, a, b) -> has_div a || has_div b
    | Ast.Unop (_, a) | Ast.Is_nil a -> has_div a
    | Ast.Num _ | Ast.Var _ -> false
  in
  let rec size = function
    | Ast.Binop (_, a, b) -> 1 + size a + size b
    | Ast.Unop (_, a) | Ast.Is_nil a -> 1 + size a
    | Ast.Num _ | Ast.Var _ -> 1
  in
  let cell =
    QCheck.Test.make_cell ~count:500 arb_case (fun c -> not (has_div c.e))
  in
  match
    QCheck.TestResult.get_state
      (QCheck.Test.check_cell ~rand:(Random.State.make [| 7 |]) cell)
  with
  | QCheck.TestResult.Failed { instances = c :: _ } ->
    Alcotest.(check int)
      ("shrunk to " ^ print_case c.QCheck.TestResult.instance)
      3 (size c.QCheck.TestResult.instance.e)
  | _ -> Alcotest.fail "expected the planted property to fail"

let suites =
  [
    ( "compiler.expr_diff",
      [
        QCheck_alcotest.to_alcotest qcheck_expressions;
        Alcotest.test_case "shrinks to a minimal expression" `Quick
          test_shrinks_to_minimal;
      ] );
  ]
