open Dpa_sim
open Dpa_heap

type result = {
  breakdown : Breakdown.t;
  dpa_stats : Dpa.Dpa_stats.t option;
}

(* The upward pass is a reduction: parent coefficients are sums of M2M
   contributions arriving through the update path, whose application order
   depends on message interleaving (and, under a fault plan, on drops,
   retransmits and crash-restarts). To make the result bit-identical
   regardless of order, every contribution to coefficient [k] of a parent
   at tree level [L] is snapped onto the fixed grid 2^-(38 + k(L-1))
   before it enters the update path (see {!Dpa_util.Det}). The grid tracks
   the coefficient's natural scale — a coefficient of order [k] has
   magnitude ~ total-charge * (child radius)^k ~ 2^-k(L+1), and downstream
   evaluation multiplies it by w^-k at well-separated distances
   |w| >= 2^-(L-1) — so each value sits far inside the grid's 2^53
   exactness bound (sums of grid multiples are then exact, hence
   order-independent) while the snap perturbs any evaluated potential by
   at most ~2^-39 per term, three orders below the 1e-8 tolerance the
   correctness tests compare against. P2M needs no snapping: a leaf's
   multipole is a single-owner direct write and is already deterministic. *)
let det_bits_base = 38

(* Work items against the generic access interface, so the pass runs under
   every runtime. *)
module Items (A : Dpa.Access.S) = struct
  let write_local_expansion heaps (ptr : Gptr.t) (e : Expansion.t) =
    (* In-place store writes: with the flat heap, [Heap.get] is a copy-out
       (mutating the copy would be lost), so owned objects are written
       through [set_float]. *)
    let h = heaps.(Gptr.node ptr) in
    Array.iteri
      (fun i c ->
        Heap.set_float h ptr (2 * i) c.Complex.re;
        Heap.set_float h ptr ((2 * i) + 1) c.Complex.im)
      e

  let p2m_items ~(params : Fmm_force.params) ~(global : Fmm_global.t) node =
    let tree = global.Fmm_global.tree in
    let parts = Quadtree.particles tree in
    let p = params.Fmm_force.p in
    Array.map
      (fun leaf ->
        let ids = Quadtree.leaf_particles tree leaf in
        let center = Quadtree.center tree leaf in
        let ptr = global.Fmm_global.mp_ptrs.(leaf) in
        fun (ctx : A.ctx) ->
          Node.charge_local (A.node ctx)
            (Array.length ids * Fmm_force.eval_cost_ns params);
          let charges =
            Array.to_list ids
            |> List.map (fun pid ->
                   (parts.(pid).Particle2d.q, parts.(pid).Particle2d.z))
          in
          let e = Expansion.p2m ~p ~center charges in
          (* The leaf's multipole object is owned here: a direct write. *)
          write_local_expansion global.Fmm_global.heaps ptr e)
      global.Fmm_global.owner_leaves.(node)

  let m2m_items ~(params : Fmm_force.params) ~(global : Fmm_global.t)
      ~owned_cells node =
    let tree = global.Fmm_global.tree in
    Array.map
      (fun ci ->
        let parent = Quadtree.parent tree ci in
        let parent_ptr = global.Fmm_global.mp_ptrs.(parent) in
        let my_ptr = global.Fmm_global.mp_ptrs.(ci) in
        let from_center = Quadtree.center tree ci in
        let to_center = Quadtree.center tree parent in
        let parent_level = Quadtree.level_of tree parent in
        fun (ctx : A.ctx) ->
          (* Our own multipole is local: the owner of a cell owns its first
             descendant leaf, which is also this item's owner. *)
          Node.charge_local (A.node ctx)
            (Fmm_force.m2l_cost_ns params / 2);
          let shifted =
            Expansion.m2m
              (Fmm_global.View.expansion global.Fmm_global.heaps my_ptr)
              ~from_center ~to_center
          in
          Array.iteri
            (fun i c ->
              let grid =
                Dpa_util.Det.grid
                  ~bits:(det_bits_base + (i * (parent_level - 1)))
              in
              let re = Dpa_util.Det.quantize ~grid c.Complex.re in
              let im = Dpa_util.Det.quantize ~grid c.Complex.im in
              if re <> 0. then A.accumulate ctx parent_ptr ~idx:(2 * i) re;
              if im <> 0. then
                A.accumulate ctx parent_ptr ~idx:((2 * i) + 1) im)
            shifted)
      owned_cells.(node)
end

let cells_by_owner tree ~nnodes ~level =
  let owned = Array.make nnodes [] in
  let side = 1 lsl level in
  (* Reverse iteration so the accumulated lists come out in row-major
     order. *)
  for iy = side - 1 downto 0 do
    for ix = side - 1 downto 0 do
      let ci = Quadtree.index tree ~level ~ix ~iy in
      let o = Fmm_global.owner_of_cell tree ~nnodes ci in
      owned.(o) <- ci :: owned.(o)
    done
  done;
  Array.map Array.of_list owned

let run ?route ~engine ~global ~params variant =
  let tree = global.Fmm_global.tree in
  let nnodes = Array.length global.Fmm_global.heaps in
  let depth = Quadtree.depth tree in
  (* The M2M phases are fan-in reductions (many children, one parent
     owner); [route] overrides a DPA config's routing for them. Results
     are bit-identical either way — the per-coefficient grids make the
     merge order irrelevant. *)
  let variant =
    match (route, variant) with
    | Some r, Dpa_baselines.Variant.Dpa config ->
      Dpa_baselines.Variant.Dpa Dpa.Config.{ config with route = r }
    | _ -> variant
  in
  let total = ref None in
  let stats = ref [] in
  let run_items items =
    let b, s =
      Dpa_baselines.Variant.run_phase variant ~label:"fmm-upward" ~engine
        ~heaps:global.Fmm_global.heaps items
    in
    (total := match !total with None -> Some b | Some t -> Some (Breakdown.add t b));
    Option.iter (fun s -> stats := s :: !stats)
      (Dpa_baselines.Variant.dpa_stats s)
  in
  (* P2M at the leaves. *)
  let items (type c) (module A : Dpa.Access.S with type ctx = c) =
    let module I = Items (A) in
    I.p2m_items ~params ~global
  in
  run_items { items };
  (* M2M, level by level (each phase is a barrier: parents are complete
     before they are shifted further up). *)
  for level = depth downto 3 do
    let owned_cells = cells_by_owner tree ~nnodes ~level in
    let items (type c) (module A : Dpa.Access.S with type ctx = c) =
      let module I = Items (A) in
      I.m2m_items ~params ~global ~owned_cells
    in
    run_items { items }
  done;
  {
    breakdown = Option.get !total;
    dpa_stats =
      (match !stats with [] -> None | l -> Some (Dpa.Dpa_stats.merge l));
  }
