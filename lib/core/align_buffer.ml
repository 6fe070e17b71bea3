open Dpa_heap

(* With the flat heap a renamed copy is just the object's handle (views
   alias the owner store — see {!Heap.view}), so D degenerates to a
   membership set over pointers. Its size and peak still measure exactly
   what the paper's D does: how many distinct remote objects the strip
   holds at once. *)
type t = { set : Index.t; mutable peak : int }

let create () = { set = Index.create ~log2:8; peak = 0 }

let mem t ptr = Index.mem t.set (ptr : Gptr.t :> int)

let add t ptr =
  Index.add t.set (ptr : Gptr.t :> int) 0;
  let n = Index.size t.set in
  if n > t.peak then t.peak <- n

let size t = Index.size t.set
let peak t = t.peak
(* The index keeps its grown bucket array across strip boundaries instead
   of shrinking and re-growing every strip. *)
let clear t = Index.clear t.set
