open Dpa_heap

module Make (A : Dpa.Access.S) = struct
  (* A register's kind, one byte of [frame.tag]. *)
  let k_unbound = '\000'
  let k_num = '\001'
  let k_bool = '\002'
  let k_ptr = '\003'

  (* One activation: per register a tag and its value, in [num] for a
     number or a boolean (0. or 1.), in [ptr] for a pointer. Registers
     [0, nvars) are the variables, the rest expression temporaries. Per
     variable, the object fetched through it ([Gptr.nil] if none: reads of
     nil fail), its read continuation (built on its first read, then kept
     with the frame) and the acquire site that continuation's read in
     flight belongs to (-1 if none). A join counter per sequential chain,
     counter 0 for the body and one per [Conc] arm: the chain's acquire
     sites and [Conc] joins use it one after another, as each completes
     before the chain goes on and [While] bodies hold no touch or call.
     The caller's frame and the code it goes on with. *)
  type frame = {
    tag : Bytes.t;
    num : float array;
    ptr : Gptr.t array;
    views : Heap.view array;
    wait : int array;
    kslot : (A.ctx -> Heap.view -> unit) array;
    counts : int array;
    mutable caller : frame;
    mutable ret : code;
  }

  and code = frame -> A.ctx -> unit

  (* An acquire site: the counter its reads join on and the code that
     runs once they all have. *)
  type site = { j : int; after : code }

  (* A function's frames not in use. *)
  type pool = { mutable free : frame array; mutable top : int }

  (* A compiled function: the register of each parameter, the frame's
     shape, the body, which ends by returning its frame to [pool] and
     running the caller's code. *)
  type fn = {
    params : int array;
    nvars : int;
    nregs : int;
    ncounts : int;
    body : code;
    pool : pool;
  }

  type accum = { mutable sum : float }

  type compiled = {
    fns : (string, fn ref) Hashtbl.t;
    accums : (string, accum) Hashtbl.t;
    stmt_cost_ns : int;
    accum_grid : float option;
  }

  let accumulator c name =
    match Hashtbl.find_opt c.accums name with Some a -> a.sum | None -> 0.

  let accumulators c =
    Hashtbl.fold (fun k a acc -> (k, a.sum) :: acc) c.accums []
    |> List.sort compare


  (* Adds number register [r]; taking the frame keeps the float unboxed. *)
  let bump c name fr r =
    let v = fr.num.(r) in
    let v =
      match c.accum_grid with
      | None -> v
      | Some grid -> Dpa_util.Det.quantize ~grid v
    in
    match Hashtbl.find c.accums name with
    | a -> a.sum <- a.sum +. v
    | exception Not_found -> Hashtbl.replace c.accums name { sum = v }

  let count n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")

  let stop _ _ = ()
  let no_k _ _ = ()

  (* The caller of an item's frame. *)
  let rec root =
    {
      tag = Bytes.empty;
      num = [||];
      ptr = [||];
      views = [||];
      wait = [||];
      kslot = [||];
      counts = [||];
      caller = root;
      ret = stop;
    }

  (* A frame for a call of [f] that goes on with [ret caller]: a free one
     of [f]'s, its registers unbound and nothing fetched, or a new one. *)
  let enter f caller ret =
    let p = f.pool in
    if p.top = 0 then
      {
        tag = Bytes.make f.nregs k_unbound;
        num = Array.make f.nregs 0.;
        ptr = Array.make f.nregs Gptr.nil;
        views = Array.make f.nvars Gptr.nil;
        wait = Array.make f.nvars (-1);
        kslot = Array.make f.nvars no_k;
        counts = Array.make f.ncounts 0;
        caller;
        ret;
      }
    else begin
      p.top <- p.top - 1;
      let fr = p.free.(p.top) in
      Bytes.fill fr.tag 0 f.nregs k_unbound;
      for s = 0 to f.nvars - 1 do
        fr.views.(s) <- Gptr.nil
      done;
      fr.caller <- caller;
      fr.ret <- ret;
      fr
    end

  (* Every read and arm of [fr] has joined: no continuation of it is left
     to run. *)
  let release p fr =
    if p.top = Array.length p.free then begin
      let free = Array.make (max 8 (2 * p.top)) root in
      Array.blit p.free 0 free 0 p.top;
      p.free <- free
    end;
    p.free.(p.top) <- fr;
    p.top <- p.top + 1

  let copy src r dst d =
    Bytes.set dst.tag d (Bytes.get src.tag r);
    dst.num.(d) <- src.num.(r);
    dst.ptr.(d) <- src.ptr.(r)

  let set_bool fr r b =
    fr.num.(r) <- (if b then 1. else 0.);
    Bytes.set fr.tag r k_bool

  (* A condition register holds a number or a boolean. *)
  let truth fr r = fr.num.(r) <> 0.

  (* What an operand must hold. *)
  type want = Number | Condition | Pointer | Any

  let accepts want k =
    match want with
    | Number -> k = k_num
    | Condition -> k = k_num || k = k_bool
    | Pointer -> k = k_ptr
    | Any -> k <> k_unbound

  let wrong want k =
    match want with
    | Number when k = k_bool -> "expected a number, got a boolean"
    | Number -> "expected a number, got a pointer"
    | Condition -> "a pointer is not a condition"
    | Pointer | Any -> "expected a pointer"

  (* The kind a non-variable expression always yields. *)
  let kind_of = function
    | Ast.Num _ | Ast.Unop (Ast.Neg, _)
    | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div), _, _) ->
      k_num
    | Ast.Unop (Ast.Not, _) | Ast.Is_nil _ | Ast.Binop _ -> k_bool
    | Ast.Var _ -> k_unbound

  (* Pointer slot [s] joins a batch: an unfetched, non-nil pointer. *)
  let joins fr s =
    Bytes.get fr.tag s = k_ptr
    && Gptr.is_nil fr.views.(s)
    && not (Gptr.is_nil fr.ptr.(s))

  let countdown j next fr ctx =
    fr.counts.(j) <- fr.counts.(j) - 1;
    if fr.counts.(j) = 0 then next fr ctx

  (* Variable [s]'s read has delivered [view] for the site [fr.wait]
     names. *)
  let deliver sites fr s ctx view =
    fr.views.(s) <- view;
    let site = sites.(fr.wait.(s)) in
    fr.wait.(s) <- -1;
    countdown site.j site.after fr ctx

  let kslot sites fr s =
    let k = fr.kslot.(s) in
    if k != no_k then k
    else begin
      let sites = !sites in
      let k ctx view = deliver sites fr s ctx view in
      fr.kslot.(s) <- k;
      k
    end

  let compile_fn c program (f : Ast.func) : fn =
    let name = f.Ast.fname and classes = Alias.infer program f in
    let slots = Hashtbl.create 8 and ncounts = ref 1 in
    (* The function's acquire sites, in the order [wait] numbers them. *)
    let sites = ref [||] and nsites = ref [] in
    let slot v =
      if not (Hashtbl.mem slots v) then
        Hashtbl.add slots v (Hashtbl.length slots);
      Hashtbl.find slots v
    in
    let counter () = incr ncounts; !ncounts - 1 in
    let fail fmt =
      Printf.ksprintf (fun m -> raise (Value.Eval_error (name ^ ": " ^ m))) fmt
    in
    (* Every variable gets its register before any temporary does. *)
    let params = Array.of_list (List.map (fun p -> slot p.Ast.pname) f.params) in
    let rec scan_expr = function
      | Ast.Num _ -> ()
      | Ast.Var v -> ignore (slot v)
      | Ast.Binop (_, a, b) -> scan_expr a; scan_expr b
      | Ast.Unop (_, e) | Ast.Is_nil e -> scan_expr e
    in
    let rec scan_stmt = function
      | Ast.Let (v, e) -> ignore (slot v); scan_expr e
      | Ast.Load_field (d, p, _) | Ast.Load_ptr (d, p, _) ->
        ignore (slot d); ignore (slot p)
      | Ast.Accum (_, e) -> scan_expr e
      | Ast.If (e, a, b) ->
        scan_expr e; List.iter scan_stmt a; List.iter scan_stmt b
      | Ast.While (e, b) -> scan_expr e; List.iter scan_stmt b
      | Ast.Call (_, args) -> List.iter scan_expr args
      | Ast.Conc b -> List.iter scan_stmt b
    in
    List.iter scan_stmt f.Ast.body;
    let nvars = Hashtbl.length slots in
    let nregs = ref nvars in
    let temp depth =
      nregs := max !nregs (nvars + depth + 1);
      nvars + depth
    in
    let mismatch want e k =
      let what = Format.asprintf "%a" Pretty.pp_expr e in
      if k = k_unbound then fail "unbound variable %s" what
      else fail "%s: %s" what (wrong want k)
    in
    (* Operand [e] as a register and the code that fills it and checks its
       kind. A variable is read in place; anything else is computed into
       temporary [depth] with deeper ones as scratch. Operands run left to
       right, each checked before the next runs. Also returns the first
       depth still free. *)
    let rec operand want e depth =
      match e with
      | Ast.Var v ->
        let s = slot v in
        let check fr =
          let k = Bytes.get fr.tag s in
          if not (accepts want k) then mismatch want e k
        in
        (s, check, depth)
      | _ ->
        let r = temp depth and k = kind_of e in
        let code = expr e r (depth + 1) in
        if accepts want k then (r, code, depth + 1)
        else
          ( r,
            (fun fr ->
              code fr;
              mismatch want e k),
            depth + 1 )
    (* Code that evaluates [e] into register [r]; temporaries from [depth]
       on are free. [r] is written last, so it may be an operand's. *)
    and expr e r depth : frame -> unit =
      match e with
      | Ast.Num x ->
        fun fr ->
          fr.num.(r) <- x;
          Bytes.set fr.tag r k_num
      | Ast.Var _ ->
        let s, check, _ = operand Any e depth in
        fun fr ->
          check fr;
          copy fr s fr r
      | Ast.Unop (Ast.Neg, a) ->
        let x, a, _ = operand Number a depth in
        fun fr ->
          a fr;
          fr.num.(r) <- -.fr.num.(x);
          Bytes.set fr.tag r k_num
      | Ast.Unop (Ast.Not, a) ->
        let x, a, _ = operand Condition a depth in
        fun fr ->
          a fr;
          set_bool fr r (not (truth fr x))
      | Ast.Is_nil a ->
        let x, a, _ = operand Pointer a depth in
        fun fr ->
          a fr;
          set_bool fr r (Gptr.is_nil fr.ptr.(x))
      | Ast.Binop (((Ast.And | Ast.Or) as op), a, b) ->
        let x, a, depth = operand Condition a depth in
        let y, b, _ = operand Condition b depth in
        if op = Ast.And then fun fr ->
          a fr;
          set_bool fr r (truth fr x && (b fr; truth fr y))
        else fun fr ->
          a fr;
          set_bool fr r (truth fr x || (b fr; truth fr y))
      | Ast.Binop (op, a, b) -> (
        let x, a, depth = operand Number a depth in
        let y, b, _ = operand Number b depth in
        let arith fr =
          a fr;
          b fr;
          Bytes.set fr.tag r k_num
        and test fr v = set_bool fr r v in
        match op with
        | Ast.Add -> fun fr -> arith fr; fr.num.(r) <- fr.num.(x) +. fr.num.(y)
        | Ast.Sub -> fun fr -> arith fr; fr.num.(r) <- fr.num.(x) -. fr.num.(y)
        | Ast.Mul -> fun fr -> arith fr; fr.num.(r) <- fr.num.(x) *. fr.num.(y)
        | Ast.Div -> fun fr -> arith fr; fr.num.(r) <- fr.num.(x) /. fr.num.(y)
        | Ast.Lt -> fun fr -> a fr; b fr; test fr (fr.num.(x) < fr.num.(y))
        | Ast.Le -> fun fr -> a fr; b fr; test fr (fr.num.(x) <= fr.num.(y))
        | Ast.Eq -> fun fr -> a fr; b fr; test fr (fr.num.(x) = fr.num.(y))
        | Ast.And | Ast.Or -> assert false)
    in
    (* The alignment point: make [p]'s object available, hoisting every
       same-class, unfetched, non-nil pointer into the batch (after [p], in
       name order), so the reads share an aggregation window. A fetch's
       continuation sets only its own slot's view, so the companions
       counted before the first read are the ones the scan issues. *)
    let acquire j p (after : code) : code =
      let s, check, _ = operand Pointer (Ast.Var p) 0 in
      let mates =
        match Alias.class_of classes p with
        | Some (Ast.Global _ as g) ->
          Hashtbl.fold
            (fun w wc acc -> if w <> p && wc = g then w :: acc else acc)
            classes []
          |> List.sort compare |> List.map slot |> Array.of_list
        | _ -> [||]
      in
      let site = List.length !nsites in
      nsites := { j; after } :: !nsites;
      (* A variable whose continuation is still in flight (a [Conc] arm
         re-reading a companion another arm hoisted) reads through a
         continuation of its own. *)
      let got s fr ctx view =
        fr.views.(s) <- view;
        countdown j after fr ctx
      in
      let issue fr ctx s =
        if fr.wait.(s) < 0 then begin
          fr.wait.(s) <- site;
          A.read ctx fr.ptr.(s) (kslot sites fr s)
        end
        else A.read ctx fr.ptr.(s) (fun ctx view -> got s fr ctx view)
      in
      fun fr ctx ->
        if not (Gptr.is_nil fr.views.(s)) then after fr ctx
        else begin
          check fr;
          let n = ref 0 in
          for i = 0 to Array.length mates - 1 do
            if joins fr mates.(i) then incr n
          done;
          fr.counts.(j) <- 1 + !n;
          issue fr ctx s;
          let i = ref 0 in
          while !n > 0 do
            let m = mates.(!i) in
            incr i;
            if joins fr m then begin
              decr n;
              issue fr ctx m
            end
          done
        end
    in
    (* [dst = p->f[i]] or [p->ptr[i]]; a loaded pointer is not fetched. *)
    let load j dst p i ~pointer next =
      let d = slot dst and s = slot p in
      let what = if pointer then "pointer" else "float" in
      let size = if pointer then Heap.view_nptrs else Heap.view_nfloats in
      let check heaps view =
        let n = size heaps view in
        if i < 0 || i >= n then
          fail "%s field %d of %s out of range (object has %s)" what i p
            (count n what)
      in
      acquire j p
        (if pointer then fun fr ctx ->
           let heaps = A.heaps ctx and view = fr.views.(s) in
           check heaps view;
           fr.ptr.(d) <- Heap.view_ptr heaps view i;
           Bytes.set fr.tag d k_ptr;
           fr.views.(d) <- Gptr.nil;
           next fr ctx
         else fun fr ctx ->
           let heaps = A.heaps ctx and view = fr.views.(s) in
           check heaps view;
           let h = heaps.(Gptr.node view) in
           fr.num.(d) <-
             Bigarray.Array1.get (Heap.float_pool h) (Heap.float_base h view + i);
           Bytes.set fr.tag d k_num;
           next fr ctx)
    in
    let rec block j stmts (next : code) : code =
      match stmts with
      | [] -> next
      | s :: rest ->
        let run = stmt j s (block j rest next) in
        fun fr ctx ->
          Dpa_sim.Node.charge_local (A.node ctx) c.stmt_cost_ns;
          run fr ctx
    and stmt j s next =
      match s with
      | Ast.Let (v, e) ->
        (* Does not reset [v]'s fetched view. *)
        let e = expr e (slot v) 0 in
        fun fr ctx ->
          e fr;
          next fr ctx
      | Ast.Accum (a, e) ->
        let x, e, _ = operand Number e 0 in
        fun fr ctx ->
          e fr;
          bump c a fr x;
          next fr ctx
      | Ast.Load_field (dst, p, i) -> load j dst p i ~pointer:false next
      | Ast.Load_ptr (dst, p, i) -> load j dst p i ~pointer:true next
      | Ast.If (e, a, b) ->
        let x, test, _ = operand Condition e 0 in
        let a = block j a next and b = block j b next in
        fun fr ctx ->
          test fr;
          if truth fr x then a fr ctx else b fr ctx
      | Ast.While (e, body) ->
        let x, test, _ = operand Condition e 0 and loop = ref next in
        let body = block j body (fun fr ctx -> !loop fr ctx) in
        (loop :=
           fun fr ctx ->
             Dpa_sim.Node.charge_local (A.node ctx) c.stmt_cost_ns;
             test fr;
             if truth fr x then body fr ctx else next fr ctx);
        !loop
      | Ast.Call (g, args) ->
        let callee = Hashtbl.find c.fns g in
        let args = Array.of_list (List.map (fun e -> operand Any e 0) args) in
        fun fr ctx ->
          let f = !callee in
          let callee_fr = enter f fr next in
          for a = 0 to Array.length args - 1 do
            let r, arg, _ = args.(a) in
            arg fr;
            copy fr r callee_fr f.params.(a)
          done;
          f.body callee_fr ctx
      | Ast.Conc [] -> next
      | Ast.Conc arms ->
        let n = List.length arms in
        let arms =
          Array.of_list
            (List.map (fun s -> block (counter ()) [ s ] (countdown j next)) arms)
        in
        fun fr ctx ->
          fr.counts.(j) <- n;
          for a = 0 to n - 1 do
            arms.(a) fr ctx
          done
    in
    let pool = { free = [||]; top = 0 } in
    let body =
      block 0 f.Ast.body (fun fr ctx ->
          let caller = fr.caller and ret = fr.ret in
          release pool fr;
          ret caller ctx)
    in
    sites := Array.of_list (List.rev !nsites);
    { params; nvars; nregs = !nregs; ncounts = !ncounts; body; pool }

  let compile ?(stmt_cost_ns = 40) ?accum_grid program =
    Alias.check program;
    let fns = Hashtbl.create 8 in
    let c = { fns; accums = Hashtbl.create 8; stmt_cost_ns; accum_grid } in
    let unset =
      {
        params = [||];
        nvars = 0;
        nregs = 0;
        ncounts = 0;
        body = stop;
        pool = { free = [||]; top = 0 };
      }
    in
    let entries = List.map (fun f -> (f, ref unset)) program.Ast.funcs in
    List.iter (fun (f, e) -> Hashtbl.replace fns f.Ast.fname e) entries;
    List.iter (fun (f, e) -> e := compile_fn c program f) entries;
    c

  let rec bind fr params a = function
    | [] -> ()
    | v :: rest ->
      let r = params.(a) in
      (match v with
      | Value.Num x ->
        fr.num.(r) <- x;
        Bytes.set fr.tag r k_num
      | Value.Bool b -> set_bool fr r b
      | Value.Ptr p ->
        fr.ptr.(r) <- p;
        Bytes.set fr.tag r k_ptr);
      bind fr params (a + 1) rest

  let item c ~entry ~args ctx =
    match Hashtbl.find c.fns entry with
    | f ->
      let f = !f in
      let n = List.length args and arity = Array.length f.params in
      if n <> arity then
        Printf.ksprintf (fun m -> raise (Value.Eval_error m))
          "arity mismatch calling %s: %s for %s" entry (count n "argument")
          (count arity "parameter");
      let fr = enter f root stop in
      bind fr f.params 0 args;
      f.body fr ctx
    | exception Not_found -> Ast.illegal "unknown function %s" entry
end
