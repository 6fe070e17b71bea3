type t = { header : string list; mutable rows : string list list }

let make ~header = { header; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg "Table.add_row: wrong number of columns";
  t.rows <- row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
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
  emit t.header;
  Buffer.add_string buf
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

type 'r column = string * ('r -> string)

let of_rows columns rows =
  let t = make ~header:(List.map fst columns) in
  List.iter (fun r -> add_row t (List.map (fun (_, cell) -> cell r) columns)) rows;
  t

let print ?footer title columns rows =
  print_endline title;
  print_string (render (of_rows columns rows));
  Option.iter print_endline footer;
  print_newline ()

let sec s = Printf.sprintf "%.2f" s
let sec_ns ns = sec (float_of_int ns *. 1e-9)
let speedup s = Printf.sprintf "%.1f" s
let opt f = function Some x -> f x | None -> "-"
