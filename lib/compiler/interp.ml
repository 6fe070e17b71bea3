open Dpa_heap

module Make (A : Dpa.Access.S) = struct
  (* One activation: per variable slot a value ([unbound] until set) and the
     object fetched through it ([Gptr.nil] if none: reads of nil fail); a
     counter per [Conc] and acquire site, pending at most once per
     activation as [While] bodies hold no touch or call; the continuation. *)
  type frame = {
    values : Value.t array;
    views : Heap.view array;
    counts : int array;
    k : A.ctx -> unit;
  }

  type code = frame -> A.ctx -> unit

  (* Runs a function's body in a fresh frame holding the arguments. *)
  type entry = Value.t array -> (A.ctx -> unit) -> A.ctx -> unit

  type compiled = {
    fns : (string, entry ref) Hashtbl.t;
    accums : (string, float ref) Hashtbl.t;
    stmt_cost_ns : int;
    accum_grid : float option;
  }

  let accumulator c name =
    match Hashtbl.find_opt c.accums name with Some r -> !r | None -> 0.

  let accumulators c =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) c.accums []
    |> List.sort compare

  let reset c = Hashtbl.reset c.accums

  let bump c name v =
    let v =
      match c.accum_grid with
      | None -> v
      | Some grid -> Dpa_util.Det.quantize ~grid v
    in
    match Hashtbl.find_opt c.accums name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.replace c.accums name (ref v)

  let unbound = Value.Num nan (* told apart by address *)
  let count n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")

  (* The slots in [mates] that join a batch: unfetched, non-nil pointers. *)
  let rec candidates fr = function
    | [] -> []
    | s :: mates -> (
      match fr.values.(s) with
      | Value.Ptr q when Gptr.is_nil fr.views.(s) && not (Gptr.is_nil q) ->
        s :: candidates fr mates
      | _ -> candidates fr mates)

  let countdown j next fr ctx =
    fr.counts.(j) <- fr.counts.(j) - 1;
    if fr.counts.(j) = 0 then next fr ctx

  let compile_fn c program (f : Ast.func) : entry =
    let name = f.Ast.fname and classes = Alias.infer program f in
    let slots = Hashtbl.create 8 and ncounts = ref 0 in
    let slot v =
      if not (Hashtbl.mem slots v) then
        Hashtbl.add slots v (Hashtbl.length slots);
      Hashtbl.find slots v
    in
    let counter () = incr ncounts; !ncounts - 1 in
    let fail fmt =
      Printf.ksprintf (fun m -> raise (Value.Eval_error (name ^ ": " ^ m))) fmt
    in
    let typed conv e get =
      let where = Format.asprintf "%s: %a" name Pretty.pp_expr e in
      fun fr -> conv where (get fr)
    in
    (* Operands run left to right; [&&] and [||] short-circuit. *)
    let rec expr = function
      | Ast.Num x -> let v = Value.Num x in fun _ -> v
      | Ast.Var v ->
        let s = slot v in
        fun fr ->
          let x = fr.values.(s) in
          if x == unbound then fail "unbound variable %s" v else x
      | Ast.Unop (Ast.Neg, e) -> let e = num e in fun fr -> Value.Num (-.e fr)
      | Ast.Unop (Ast.Not, e) ->
        let e = cond e in
        fun fr -> Value.Bool (not (e fr))
      | Ast.Is_nil e ->
        let e = ptr e in
        fun fr -> Value.Bool (Gptr.is_nil (e fr))
      | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) ->
        let a = cond a and b = cond b in
        if op = Ast.And then fun fr -> Value.Bool (a fr && b fr)
        else fun fr -> Value.Bool (a fr || b fr)
      | Ast.Binop (op, a, b) -> (
        let a = num a and b = num b in
        let arith f fr = let x = a fr in Value.Num (f x (b fr)) in
        let test f fr = let x = a fr in Value.Bool (f x (b fr)) in
        match op with
        | Ast.Add -> arith ( +. ) | Ast.Sub -> arith ( -. )
        | Ast.Mul -> arith ( *. ) | Ast.Div -> arith ( /. )
        | Ast.Lt -> test ( < ) | Ast.Le -> test ( <= ) | Ast.Eq -> test ( = )
        | Ast.And | Ast.Or -> assert false)
    and num e = typed Value.num e (expr e)
    and cond e = typed Value.truthy e (expr e)
    and ptr e = typed Value.ptr e (expr e) in
    (* The alignment point: make [p]'s object available, hoisting every
       same-class, unfetched, non-nil pointer into the batch (after [p], in
       name order), so the reads share an aggregation window. *)
    let acquire p (after : code) : code =
      let s = slot p and get = ptr (Ast.Var p) and j = counter () in
      let mates =
        match Alias.class_of classes p with
        | Some (Ast.Global _ as g) ->
          Hashtbl.fold
            (fun w wc acc -> if w <> p && wc = g then w :: acc else acc)
            classes []
          |> List.sort compare |> List.map slot
        | _ -> []
      in
      let fetch fr ctx s q =
        A.read ctx q (fun ctx view ->
            fr.views.(s) <- view;
            countdown j after fr ctx)
      in
      fun fr ctx ->
        if not (Gptr.is_nil fr.views.(s)) then after fr ctx
        else begin
          let q = get fr and batch = candidates fr mates in
          fr.counts.(j) <- 1 + List.length batch;
          fetch fr ctx s q;
          if batch <> [] then
            List.iter (fun m -> fetch fr ctx m (Value.ptr name fr.values.(m)))
              batch
        end
    in
    (* [dst = p->f[i]] or [p->ptr[i]]; a loaded pointer is not fetched. *)
    let load dst p i ~pointer next =
      let d = slot dst and s = slot p in
      let what = if pointer then "pointer" else "float" in
      let size = if pointer then Heap.view_nptrs else Heap.view_nfloats in
      acquire p (fun fr ctx ->
          let heaps = A.heaps ctx and view = fr.views.(s) in
          let n = size heaps view in
          if i < 0 || i >= n then
            fail "%s field %d of %s out of range (object has %s)" what i p
              (count n what);
          if pointer then begin
            fr.values.(d) <- Value.Ptr (Heap.view_ptr heaps view i);
            fr.views.(d) <- Gptr.nil
          end
          else fr.values.(d) <- Value.Num (Heap.view_float heaps view i);
          next fr ctx)
    in
    let rec block stmts (next : code) : code =
      match stmts with
      | [] -> next
      | s :: rest ->
        let run = stmt s (block rest next) in
        fun fr ctx ->
          A.charge ctx c.stmt_cost_ns;
          run fr ctx
    and stmt s next =
      match s with
      | Ast.Let (v, e) ->
        let d = slot v and e = expr e in
        fun fr ctx ->
          fr.values.(d) <- e fr;
          next fr ctx
      | Ast.Accum (a, e) ->
        let e = num e in
        fun fr ctx ->
          bump c a (e fr);
          next fr ctx
      | Ast.Load_field (dst, p, i) -> load dst p i ~pointer:false next
      | Ast.Load_ptr (dst, p, i) -> load dst p i ~pointer:true next
      | Ast.If (e, a, b) ->
        let test = cond e and a = block a next and b = block b next in
        fun fr ctx -> if test fr then a fr ctx else b fr ctx
      | Ast.While (e, body) ->
        let test = cond e and loop = ref next in
        let body = block body (fun fr ctx -> !loop fr ctx) in
        (loop :=
           fun fr ctx ->
             A.charge ctx c.stmt_cost_ns;
             if test fr then body fr ctx else next fr ctx);
        !loop
      | Ast.Call (g, args) ->
        let callee = Hashtbl.find c.fns g in
        let args = Array.of_list (List.map expr args) in
        fun fr ctx ->
          !callee (Array.map (fun a -> a fr) args) (fun ctx -> next fr ctx) ctx
      | Ast.Conc [] -> next
      | Ast.Conc arms ->
        let j = counter () and n = List.length arms in
        let arms = List.map (fun s -> block [ s ] (countdown j next)) arms in
        fun fr ctx ->
          fr.counts.(j) <- n;
          List.iter (fun arm -> arm fr ctx) arms
    in
    let params = List.map (fun p -> slot p.Ast.pname) f.params in
    let params = Array.of_list params in
    let body = block f.Ast.body (fun fr ctx -> fr.k ctx) in
    let n = Hashtbl.length slots and ncounts = !ncounts in
    let arity = Array.length params in
    fun args k ctx ->
      if Array.length args <> arity then
        Printf.ksprintf (fun m -> raise (Value.Eval_error m))
          "arity mismatch calling %s: %s for %s" name
          (count (Array.length args) "argument") (count arity "parameter");
      let values = Array.make n unbound and counts = Array.make ncounts 0 in
      let fr = { values; views = Array.make n Gptr.nil; counts; k } in
      Array.iteri (fun a s -> values.(s) <- args.(a)) params;
      body fr ctx

  let compile ?(stmt_cost_ns = 40) ?accum_grid program =
    Alias.check program;
    let fns = Hashtbl.create 8 in
    let c = { fns; accums = Hashtbl.create 8; stmt_cost_ns; accum_grid } in
    let entry f = (f, ref (fun _ _ _ -> ())) in
    let entries = List.map entry program.Ast.funcs in
    List.iter (fun (f, e) -> Hashtbl.replace fns f.Ast.fname e) entries;
    List.iter (fun (f, e) -> e := compile_fn c program f) entries;
    c

  let item c ~entry ~args ctx =
    match Hashtbl.find_opt c.fns entry with
    | Some f -> !f (Array.of_list args) ignore ctx
    | None -> Ast.illegal "unknown function %s" entry
end
