type t = { header : string list; rows : string list list }

let render { header; rows } =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 256 in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let emit row =
    List.iteri
      (fun c cell ->
        Buffer.add_string buf (pad cell (List.nth widths c));
        if c < ncols - 1 then Buffer.add_string buf "  ")
      row;
    Buffer.add_char buf '\n'
  in
  emit header;
  Buffer.add_string buf
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

type 'a kind = { text : 'a -> string; value : 'a -> Dpa_obs.Json.t }

let kind text value = { text; value }
let int = kind string_of_int (fun n -> Dpa_obs.Json.Int n)
let float show = kind show (fun x -> Dpa_obs.Json.Float x)
let string = kind Fun.id (fun s -> Dpa_obs.Json.Str s)

let bool ~yes ~no =
  kind (fun b -> if b then yes else no) (fun b -> Dpa_obs.Json.Bool b)

let option k =
  kind
    (Option.fold ~none:"-" ~some:k.text)
    (Option.fold ~none:Dpa_obs.Json.Null ~some:k.value)

type 'r column = { header : string; key : string; cell : 'r kind }

let column header key k f =
  { header; key; cell = kind (fun r -> k.text (f r)) (fun r -> k.value (f r)) }

let of_rows columns rows =
  {
    header = List.map (fun c -> c.header) columns;
    rows = List.map (fun r -> List.map (fun c -> c.cell.text r) columns) rows;
  }

let json_rows columns rows =
  Dpa_obs.Json.List
    (List.map
       (fun r ->
         Dpa_obs.Json.Obj (List.map (fun c -> (c.key, c.cell.value r)) columns))
       rows)

let json title columns rows =
  Dpa_obs.Json.Obj [ ("title", Str title); ("rows", json_rows columns rows) ]

let print ?footer title columns rows =
  print_endline title;
  print_string (render (of_rows columns rows));
  Option.iter print_endline footer;
  print_newline ();
  json title columns rows

let sec s = Printf.sprintf "%.2f" s
let speedup s = Printf.sprintf "%.1f" s
