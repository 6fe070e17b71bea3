open Dpa_heap
open Dpa_util

type t = {
  heaps : Heap.cluster;
  e_nodes : Gptr.t array;
  h_nodes : Gptr.t array;
  degree : int;
}

let build ~nnodes ~e_per_node ~h_per_node ~degree ~remote_frac ~seed =
  if degree <= 0 then invalid_arg "Em3d.build: degree must be positive";
  if remote_frac < 0. || remote_frac > 1. then
    invalid_arg "Em3d.build: remote_frac must be in [0,1]";
  let rng = Rng.create ~seed in
  let heaps = Heap.cluster ~nnodes in
  (* Allocate H-nodes first so E-node dependency pointers can be filled at
     allocation time (the graph is bipartite, so no cycles to tie). *)
  let h_nodes =
    Array.init (nnodes * h_per_node) (fun i ->
        let owner = i / h_per_node in
        Heap.alloc heaps.(owner)
          ~floats:[| Rng.uniform rng |]
          ~ptrs:[||])
  in
  let pick_neighbor ~my_node =
    let owner =
      if nnodes > 1 && Rng.uniform rng < remote_frac then begin
        (* A remote owner, uniform over the others. *)
        let o = Rng.int rng (nnodes - 1) in
        if o >= my_node then o + 1 else o
      end
      else my_node
    in
    h_nodes.((owner * h_per_node) + Rng.int rng h_per_node)
  in
  let e_nodes =
    Array.init (nnodes * e_per_node) (fun i ->
        let owner = i / e_per_node in
        let floats = Array.make (1 + degree) 0. in
        floats.(0) <- Rng.uniform rng;
        for k = 1 to degree do
          floats.(k) <- Rng.uniform rng -. 0.5
        done;
        let ptrs = Array.init degree (fun _ -> pick_neighbor ~my_node:owner) in
        Heap.alloc heaps.(owner) ~floats ~ptrs)
  in
  { heaps; e_nodes; h_nodes; degree }

let update_program ~degree =
  (* new_value = value - sum_k coeff_k * neighbor_k.value; the loop over
     neighbors is unrolled (While bodies must be touch-free). *)
  let body =
    [ Ast.Load_field ("v", "n", 0) ]
    @ List.concat
        (List.init degree (fun k ->
             [
               Ast.Load_ptr ("dep", "n", k);
               Ast.Load_field ("dv", "dep", 0);
               Ast.Load_field ("c", "n", k + 1);
               Ast.Let
                 ( "v",
                   Ast.Binop
                     ( Ast.Sub,
                       Ast.Var "v",
                       Ast.Binop (Ast.Mul, Ast.Var "c", Ast.Var "dv") ) );
             ]))
    @ [ Ast.Accum ("sum", Ast.Var "v") ]
  in
  {
    Ast.funcs =
      [
        {
          Ast.fname = "update_node";
          params = [ { Ast.pname = "n"; pclass = Some (Ast.Global 0) } ];
          body;
        };
      ];
  }

let node_update heaps degree ptr =
  let view = Heap.deref heaps ptr in
  let f = view.Obj_repr.floats in
  let v = ref f.(0) in
  for k = 0 to degree - 1 do
    let dep = Heap.deref heaps view.Obj_repr.ptrs.(k) in
    v := !v -. (f.(k + 1) *. dep.Obj_repr.floats.(0))
  done;
  !v

let reference_update t =
  Array.fold_left
    (fun acc ptr -> acc +. node_update t.heaps t.degree ptr)
    0. t.e_nodes

let items (type c) (module A : Dpa.Access.S with type ctx = c) t ~accum node =
  let degree = t.degree in
  let nnodes = Array.length t.heaps in
  let per_node = Array.length t.e_nodes / nnodes in
  Array.init per_node (fun i ->
      let ptr = t.e_nodes.((node * per_node) + i) in
      fun (ctx : c) ->
        A.read ctx ptr (fun ctx view ->
            let heaps = A.heaps ctx in
            let v = ref (Heap.view_float heaps view 0) in
            let remaining = ref degree in
            for k = 0 to Heap.view_nptrs heaps view - 1 do
              let dep = Heap.view_ptr heaps view k in
              A.read ctx dep (fun ctx dview ->
                  Dpa_sim.Node.charge_local (A.node ctx) 150;
                  let heaps = A.heaps ctx in
                  v :=
                    !v
                    -. (Heap.view_float heaps view (k + 1)
                       *. Heap.view_float heaps dview 0);
                  decr remaining;
                  if !remaining = 0 then accum !v)
            done))
