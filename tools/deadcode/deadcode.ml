(* A reference index over the compiler's typed trees.

   Usage: deadcode [-all] [-allow FILE] ROOT

   Reads the .cmt/.cmti files that `dune build @check` writes under
   ROOT/{lib,bin,examples,perfbench,test}. The entries are the [val]s of
   the lib/ interfaces (functor results included) and the record fields
   declared in lib/. A reference counts where the compiler resolved it:
   an identifier carries the location of its declaration, so a use under
   [open] or through a local [module X = Lib.M] alias is found like a
   qualified one, and a module passed to a functor or packed as a
   first-class module uses the values its coercion takes.

   Each value is classed by who uses it outside its own module, each field
   by who reads it anywhere: "product" (lib, bin, examples), "perfbench",
   "perfbench+test", "test" or "none". The table lists the entries that
   are not product (all of them with -all). With -allow, exits 1 on such
   an entry without a "Name reason" line in FILE, and on a line of FILE
   that names none. *)

open Typedtree

(* [name] reads Module.value, Module.Sub.value or Module.type.field. *)
type entry = { name : string; field : bool; loc : string; mutable users : string list }

(* By declaration location: a resolved reference carries one. *)
let decls : (string * int, entry) Hashtbl.t = Hashtbl.create 1024

(* By name: a field declared in both the .ml and the .mli is one entry. *)
let entries : (string, entry) Hashtbl.t = Hashtbl.create 1024
let key (l : Location.t) = (l.loc_start.pos_fname, l.loc_start.pos_cnum)

let declare ~field path name (l : Location.t) =
  let name = String.concat "." (path @ [ name ]) in
  if not (Hashtbl.mem entries name) then
    Hashtbl.replace entries name
      { name; field; users = [];
        loc = Printf.sprintf "%s:%d" l.loc_start.pos_fname l.loc_start.pos_lnum };
  Hashtbl.replace decls (key l) (Hashtbl.find entries name)

let fields path (td : type_declaration) =
  match td.typ_type.type_kind with
  | Type_record (lds, _) ->
      List.iter
        (fun (ld : Types.label_declaration) ->
          declare ~field:true (path @ [ td.typ_name.txt ]) (Ident.name ld.ld_id)
            ld.ld_loc)
        lds
  | _ -> ()

let rec sig_decls path sg =
  List.iter
    (fun it ->
      match it.sig_desc with
      | Tsig_value vd ->
          declare ~field:false path vd.val_name.txt vd.val_val.val_loc
      | Tsig_type (_, tds) -> List.iter (fields path) tds
      | Tsig_module { md_name = { txt = Some m; _ }; md_type; _ } ->
          let rec body mty =
            match mty.mty_desc with
            | Tmty_signature sg -> sig_decls (path @ [ m ]) sg
            | Tmty_functor (_, mty) -> body mty
            | _ -> ()
          in
          body md_type
      | _ -> ())
    sg.sig_items

let rec str_decls path str =
  List.iter
    (fun it ->
      match it.str_desc with
      | Tstr_type (_, tds) -> List.iter (fields path) tds
      | Tstr_module { mb_name = { txt = Some m; _ }; mb_expr; _ } ->
          let rec body me =
            match me.mod_desc with
            | Tmod_structure s -> str_decls (path @ [ m ]) s
            | Tmod_constraint (me, _, _, _) | Tmod_functor (_, me) -> body me
            | _ -> ()
          in
          body mb_expr
      | _ -> ())
    str.str_items

let use cls l =
  match Hashtbl.find_opt decls (key l) with
  | Some e when not (List.mem cls e.users) -> e.users <- cls :: e.users
  | _ -> ()

(* The values of [mty] that coercion [cc] takes, by runtime position. *)
let coerced cls (mty : Types.module_type) cc =
  match mty with
  | Mty_signature sg -> (
      let comps = Array.of_list (List.filter Includemod.is_runtime_component sg) in
      let take = function
        | Types.Sig_value (_, vd, _) -> use cls vd.val_loc
        | _ -> ()
      in
      match cc with
      | Tcoerce_none -> Array.iter take comps
      | Tcoerce_structure (pos, _) ->
          List.iter
            (fun (i, _) -> if i >= 0 && i < Array.length comps then take comps.(i))
            pos
      | _ -> ())
  | _ -> ()

let iterator cls =
  let open Tast_iterator in
  let expr it e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> use cls vd.val_loc
    | Texp_field (_, _, ld) -> use cls ld.lbl_loc
    | _ -> ());
    default_iterator.expr it e
  in
  let pat : type k. iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_record (fs, _) -> List.iter (fun (_, ld, _) -> use cls ld.Types.lbl_loc) fs
    | _ -> ());
    default_iterator.pat it p
  in
  let module_expr it me =
    (match me.mod_desc with
    | Tmod_apply (_, arg, cc) -> coerced cls arg.mod_type cc
    | Tmod_constraint (me, _, _, cc) -> coerced cls me.mod_type cc
    | _ -> ());
    default_iterator.module_expr it me
  in
  { default_iterator with expr; pat; module_expr }

(* [f] on the typed tree and unit name of every file under [dir] ending
   in [ext], the hidden .objs directories included. *)
let rec each ext dir f =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun n ->
        let p = Filename.concat dir n in
        if Sys.is_directory p then each ext p f
        else if Filename.check_suffix n ext then
          let c = Cmt_format.read_cmt p in
          let src = Filename.basename (Option.value c.cmt_sourcefile ~default:p) in
          f (String.capitalize_ascii (Filename.remove_extension src)) c.cmt_annots)
      (Sys.readdir dir)

let classify e =
  let has c = List.mem c e.users in
  if has "product" then "product"
  else if has "perfbench" then if has "test" then "perfbench+test" else "perfbench"
  else if has "test" then "test"
  else "none"

let () =
  let all = ref false and allow = ref None and root = ref "." in
  Arg.parse
    [
      ("-all", Arg.Set all, " list product entries too");
      ("-allow", Arg.String (fun f -> allow := Some f), "FILE the allow list");
    ]
    (fun r -> root := r)
    "deadcode [-all] [-allow FILE] ROOT";
  let dir d = Filename.concat !root d in
  each ".cmti" (dir "lib") (fun m -> function
    | Interface sg -> sig_decls [ m ] sg | _ -> ());
  each ".cmt" (dir "lib") (fun m -> function
    | Implementation str -> str_decls [ m ] str | _ -> ());
  List.iter
    (fun (d, cls) ->
      let it = iterator cls in
      each ".cmt" (dir d) (fun _ -> function
        | Implementation str -> it.structure it str | _ -> ()))
    [ ("lib", "product"); ("bin", "product"); ("examples", "product");
      ("perfbench", "perfbench"); ("test", "test") ];
  let rows =
    Hashtbl.fold (fun _ e acc -> (classify e, e.field, e.name, e) :: acc) entries []
    |> List.sort compare
  in
  List.iter
    (fun (c, field, name, e) ->
      if !all || c <> "product" then
        Printf.printf "%-14s %-5s %-44s %s\n" c
          (if field then "field" else "value") name e.loc)
    rows;
  let count c = List.length (List.filter (fun (c', _, _, _) -> c' = c) rows) in
  Printf.printf "deadcode: %d entries: %s\n" (List.length rows)
    (String.concat ", "
       (List.map (fun c -> Printf.sprintf "%d %s" (count c) c)
          [ "product"; "perfbench"; "perfbench+test"; "test"; "none" ]));
  Option.iter
    (fun file ->
      let bad = ref 0 in
      let fail fmt = incr bad; Printf.eprintf ("deadcode: " ^^ fmt ^^ "\n") in
      let allowed =
        In_channel.with_open_text file In_channel.input_lines
        |> List.filter_map (fun l ->
               match String.split_on_char ' ' (String.trim l) with
               | [ "" ] | [] -> None
               | n :: _ when n.[0] = '#' -> None
               | [ n ] -> fail "%s: %s has no reason" file n; None
               | n :: _ -> Some n)
      in
      List.iter
        (fun (c, _, name, e) ->
          if c <> "product" && not (List.mem name allowed) then
            fail "%s (%s) has no product reader (%s) and no line in %s" name e.loc c file)
        rows;
      List.iter
        (fun n ->
          match Hashtbl.find_opt entries n with
          | Some e when classify e <> "product" -> ()
          | _ -> fail "%s: %s names no export or field without a product reader" file n)
        allowed;
      if !bad > 0 then exit 1)
    !allow
