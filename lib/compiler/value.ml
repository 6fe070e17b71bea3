type t = Num of float | Bool of bool | Ptr of Dpa_heap.Gptr.t

exception Eval_error of string

let fail where m = raise (Eval_error (where ^ ": " ^ m))

let num where = function
  | Num f -> f
  | Bool _ -> fail where "expected a number, got a boolean"
  | Ptr _ -> fail where "expected a number, got a pointer"

let truthy where = function
  | Bool b -> b
  | Num f -> f <> 0.
  | Ptr _ -> fail where "a pointer is not a condition"

let ptr where = function
  | Ptr p -> p
  | Num _ | Bool _ -> fail where "expected a pointer"

let pp ppf = function
  | Num f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.fprintf ppf "%b" b
  | Ptr p -> Format.fprintf ppf "%s" (Dpa_heap.Gptr.show p)
