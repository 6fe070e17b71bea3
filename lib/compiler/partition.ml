type spawn_site = {
  label : string;
  hoisted : string list;
}

type info = {
  fname : string;
  static_threads : int;
  spawn_sites : spawn_site list;
}

module Sset = Set.Make (String)

let analyze p f =
  let classes = Alias.infer p f in
  let sites = ref [] in
  (* [defined]: pointer variables in scope; [avail]: pointers whose objects
     are fetched in the current thread region. *)
  let touch defined avail v =
    match Hashtbl.find_opt classes v with
    | None -> Ast.illegal "%s: %s is not a pointer" f.Ast.fname v
    | Some Ast.Local -> avail (* local data: no thread, direct access *)
    | Some (Ast.Global _ as cls) ->
      if Sset.mem v avail then avail
      else begin
        let hoisted =
          Sset.elements
            (Sset.filter
               (fun w ->
                 w <> v
                 && (not (Sset.mem w avail))
                 && Hashtbl.find_opt classes w = Some cls)
               defined)
        in
        sites := { label = v; hoisted } :: !sites;
        Sset.union avail (Sset.add v (Sset.of_list hoisted))
      end
  in
  let rec stmts defined avail ss =
    List.fold_left
      (fun (defined, avail) s -> stmt defined avail s)
      (defined, avail) ss
  and stmt defined avail = function
    | Ast.Let _ | Ast.Accum _ -> (defined, avail)
    | Ast.Load_field (_, p', _) -> (defined, touch defined avail p')
    | Ast.Load_ptr (dst, p', _) ->
      let avail = touch defined avail p' in
      (* dst is rebound: its old object (if any) is stale. *)
      (Sset.add dst defined, Sset.remove dst avail)
    | Ast.If (_, a, b) ->
      let _, av_a = stmts defined avail a in
      let _, av_b = stmts defined avail b in
      (defined, Sset.inter av_a av_b)
    | Ast.While (_, b) ->
      let _, _ = stmts defined avail b in
      (defined, avail)
    | Ast.Call _ -> (defined, avail)
    | Ast.Conc b ->
      let avails = List.map (fun s -> snd (stmt defined avail s)) b in
      (defined, List.fold_left Sset.inter avail avails)
  in
  let defined0 =
    List.fold_left
      (fun acc prm ->
        if prm.Ast.pclass <> None then Sset.add prm.Ast.pname acc else acc)
      Sset.empty f.Ast.params
  in
  let _ = stmts defined0 Sset.empty f.Ast.body in
  let sites = List.rev !sites in
  { fname = f.Ast.fname; static_threads = 1 + List.length sites; spawn_sites = sites }

let analyze_program p = List.map (analyze p) p.Ast.funcs

