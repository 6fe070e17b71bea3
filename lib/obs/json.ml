type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ---------------------------------------------------------- *)

(* The scalar writers below are top-level functions that allocate
   nothing: the event writers call them once per field, and a local
   recursive helper would cost a closure per call. *)

(* [int_to] writes a one-digit number with one [add_char]. Other numbers
   go right to left into [digits], two digits at a time from [pairs] ("00"
   to "99"), and are copied out in one blit. [m <= 0] is the negated
   magnitude, so [min_int] (19 digits and a sign) needs no special case,
   and a division by a constant compiles to a multiply. The scratch is
   shared: the observability layer runs on one domain. *)
let digits = Bytes.create 20

let pairs =
  String.init 200 (fun i ->
      Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

let int_to buf n =
  if n >= 0 && n < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else begin
    let m = ref (if n < 0 then n else -n) and i = ref (Bytes.length digits) in
    while !m <= -100 do
      let q = !m / 100 in
      let p = 2 * ((q * 100) - !m) in
      i := !i - 2;
      Bytes.unsafe_set digits !i (String.unsafe_get pairs p);
      Bytes.unsafe_set digits (!i + 1) (String.unsafe_get pairs (p + 1));
      m := q
    done;
    if !m <= -10 then begin
      i := !i - 2;
      Bytes.unsafe_set digits !i (String.unsafe_get pairs (-2 * !m));
      Bytes.unsafe_set digits (!i + 1) (String.unsafe_get pairs ((-2 * !m) + 1))
    end
    else begin
      decr i;
      Bytes.unsafe_set digits !i (Char.unsafe_chr (48 - !m))
    end;
    if n < 0 then begin
      decr i;
      Bytes.unsafe_set digits !i '-'
    end;
    Buffer.add_subbytes buf digits !i (Bytes.length digits - !i)
  end

let rec needs_escape s i =
  i < String.length s
  &&
  match String.unsafe_get s i with
  | '"' | '\\' | '\000' .. '\031' -> true
  | _ -> needs_escape s (i + 1)

let hex = "0123456789abcdef"

let escape_char_to buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | '\000' .. '\031' as c ->
    Buffer.add_string buf "\\u00";
    Buffer.add_char buf hex.[Char.code c lsr 4];
    Buffer.add_char buf hex.[Char.code c land 15]
  | c -> Buffer.add_char buf c

let escape_to buf s =
  Buffer.add_char buf '"';
  if not (needs_escape s 0) then Buffer.add_string buf s
  else
    for i = 0 to String.length s - 1 do
      escape_char_to buf (String.unsafe_get s i)
    done;
  Buffer.add_char buf '"'

let float_to buf f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> Buffer.add_string buf "null"
  | _ ->
    let s = Printf.sprintf "%.12g" f in
    Buffer.add_string buf s;
    (* Keep whole floats distinguishable from ints so printing then parsing
       restores the same constructor. *)
    if String.for_all (function '0' .. '9' | '-' -> true | _ -> false) s then
      Buffer.add_string buf ".0"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> int_to buf i
  | Float f -> float_to buf f
  | Str s -> escape_to buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

(* --- parsing ----------------------------------------------------------- *)

exception Fail of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let utf8_add buf code =
    (* Encode a Unicode scalar value as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> begin
        if !pos >= n then fail "truncated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let hi = parse_hex4 () in
          if hi >= 0xd800 && hi <= 0xdbff then begin
            (* Surrogate pair. *)
            expect '\\';
            expect 'u';
            let lo = parse_hex4 () in
            if lo < 0xdc00 || lo > 0xdfff then fail "invalid low surrogate";
            utf8_add buf
              (0x10000 + ((hi - 0xd800) lsl 10) + (lo - 0xdc00))
          end
          else utf8_add buf hi
        | _ -> fail "invalid escape");
        loop ()
      end
      | c -> begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    let int_start = !pos in
    digits ();
    if s.[int_start] = '0' && !pos - int_start > 1 then
      fail "leading zero in number";
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      is_float := true;
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        List (elems [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)
  | exception Failure msg -> Error ("JSON parse error: " ^ msg)
