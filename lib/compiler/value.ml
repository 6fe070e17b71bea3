type t = Num of float | Bool of bool | Ptr of Dpa_heap.Gptr.t

exception Eval_error of string
