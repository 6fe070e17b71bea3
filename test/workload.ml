(* Shared synthetic workload for runtime tests: a cluster of heaps holding
   value objects, and per-node work items that read pseudo-random (but
   deterministic) sequences of global pointers and sum the values they
   find. Every runtime must produce the same sums. *)

open Dpa_heap

type t = {
  heaps : Heap.cluster;
  ptrs : Gptr.t array array;  (* ptrs.(node).(slot) *)
  nnodes : int;
  nobjs : int;
}

(* The "heavy" fault preset, as [--faults heavy] names it. *)
let heavy_faults = Result.get_ok (Dpa_sim.Fault.spec_of_string "heavy")

let value ~node ~slot = float_of_int ((node * 1000) + slot)

let make ~nnodes ~nobjs =
  let heaps = Heap.cluster ~nnodes in
  let ptrs =
    Array.init nnodes (fun node ->
        Array.init nobjs (fun slot ->
            Heap.alloc heaps.(node)
              ~floats:[| value ~node ~slot |]
              ~ptrs:[||]))
  in
  { heaps; ptrs; nnodes; nobjs }

(* The pointer sequence of item [i] on [node]: deterministic hashing. *)
let item_ptrs t ~node ~item ~reads =
  Array.init reads (fun r ->
      let h = ((node * 7919) + (item * 104729) + (r * 1299721)) land max_int in
      let target = h mod t.nnodes in
      let slot = (h / 31) mod t.nobjs in
      t.ptrs.(target).(slot))

let expected_sum t ~node ~nitems ~reads =
  let sum = ref 0. in
  for item = 0 to nitems - 1 do
    Array.iter
      (fun (p : Gptr.t) ->
        sum := !sum +. value ~node:(Gptr.node p) ~slot:(Gptr.slot p))
      (item_ptrs t ~node ~item ~reads)
  done;
  !sum

(* Build per-node items against any runtime's access operations. [sums] is
   filled in as items complete. *)
let items (type c) (module A : Dpa.Access.S with type ctx = c) t ~nitems ~reads
    ~work_ns (sums : float array) =
  fun node ->
  Array.init nitems (fun item ->
      let ps = item_ptrs t ~node ~item ~reads in
      fun (ctx : c) ->
        Array.iter
          (fun p ->
            A.read ctx p (fun ctx view ->
                Dpa_sim.Node.charge_local (A.node ctx) work_ns;
                sums.(A.node_id ctx) <-
                  sums.(A.node_id ctx)
                  +. Heap.view_float (A.heaps ctx) view 0))
          ps)
