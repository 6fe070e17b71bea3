open Dpa_heap

(* With the flat heap a renamed copy is just the object's handle (views
   alias the owner store — see {!Heap.view}), so D degenerates to a
   membership set over pointers. Its size and peak still measure exactly
   what the paper's D does: how many distinct remote objects the strip
   holds at once. *)
type t = { table : unit Gptr.Tbl.t; mutable peak : int }

let create () = { table = Gptr.Tbl.create 256; peak = 0 }

let mem t ptr = Gptr.Tbl.mem t.table ptr

let add t ptr =
  Gptr.Tbl.replace t.table ptr ();
  let n = Gptr.Tbl.length t.table in
  if n > t.peak then t.peak <- n

let size t = Gptr.Tbl.length t.table
let peak t = t.peak
(* [clear], not [reset]: the table keeps its grown bucket array across
   strip boundaries instead of shrinking and re-growing every strip. *)
let clear t = Gptr.Tbl.clear t.table
