open Dpa_heap

type params = {
  theta : float;
  eps : float;
  visit_ns : int;
  body_cell_ns : int;
  body_body_ns : int;
}

let default_params =
  { theta = 1.0; eps = 0.05; visit_ns = 400; body_cell_ns = 4250; body_body_ns = 3100 }

(* Deterministic reduction: each interaction's contribution is snapped to a
   fixed-point grid before being added into the per-body accumulator. Grid
   values are exact multiples of 2^-42, and the running sums stay well under
   2^10, so every addition is exact in a double — which makes the summation
   order-independent at the bit level. The wake order of a body's pending
   reads is a timing artifact (and shifts under injected network faults);
   this is what lets any fault schedule reproduce the fault-free forces
   exactly. The snap costs ~2e-13 per contribution, far inside the 1e-9
   agreement with the sequential reference. See Dpa_util.Det. *)
let det_grid = Dpa_util.Det.grid ~bits:42

(* [spend] charges simulated time to [node] and, when [work] is given,
   records it against the body. The traversal — hence the recorded total —
   is a pure function of the tree geometry, so the measured weights are
   independent of the partition and of any fault schedule: the same step
   always yields the same weights, which is what keeps repartitioned runs
   deterministic. It sits outside the functor so that it and
   [Node.charge_local] inline at every interaction. *)
let[@inline] spend work bid node ns =
  Dpa_sim.Node.charge_local node ns;
  match work with None -> () | Some w -> w.(bid) <- w.(bid) + ns

module Make (A : Dpa.Access.S) = struct
  let items ?work ~params ~tree ~bodies ~(accs : float array) node =
    let root = tree.Bh_global.root in
    let theta = params.theta and eps = params.eps in
    let grid = det_grid in
    Array.map
      (fun bid ->
        let b = bodies.(bid) in
        let px = b.Body.pos.Vec3.x
        and py = b.Body.pos.Vec3.y
        and pz = b.Body.pos.Vec3.z in
        let base = 3 * bid in
        (* The interaction math is written out scalar over the owner's
           float pool: no Vec3 temporaries, no boxed-float returns, so a
           visit allocates nothing. Every arithmetic expression mirrors
           the Vec3/Kernels reference op for op (same association, same
           order), which keeps the summed forces bit-identical to the
           boxed implementation and to {!Bh_seq}. *)
        let rec visit ctx (view : Heap.view) =
          (* One read of the running node and of the stores per visit. *)
          let here = A.node ctx and heaps = A.heaps ctx in
          spend work bid here params.visit_ns;
          let h = heaps.(Gptr.node view) in
          let fp = Heap.float_pool h in
          let fb = Heap.float_base h view in
          let cx = Bigarray.Array1.get fp (fb + 1)
          and cy = Bigarray.Array1.get fp (fb + 2)
          and cz = Bigarray.Array1.get fp (fb + 3) in
          (* Kernels.opened: d = |pos - com|, opened iff 2*half >= theta*d *)
          let dx = px -. cx and dy = py -. cy and dz = pz -. cz in
          let d = sqrt ((dx *. dx) +. (dy *. dy) +. (dz *. dz)) in
          let half = Bigarray.Array1.get fp (fb + 5) in
          if not (2. *. half >= theta *. d) then begin
            spend work bid here params.body_cell_ns;
            (* Kernels.accel against the cell's center of mass. *)
            let rx = cx -. px and ry = cy -. py and rz = cz -. pz in
            let d2 = (rx *. rx) +. (ry *. ry) +. (rz *. rz) in
            if d2 = 0. then begin
              accs.(base) <- accs.(base) +. 0.;
              accs.(base + 1) <- accs.(base + 1) +. 0.;
              accs.(base + 2) <- accs.(base + 2) +. 0.
            end
            else begin
              let d2 = d2 +. (eps *. eps) in
              let inv = 1. /. (d2 *. sqrt d2) in
              let s = Bigarray.Array1.get fp (fb + 4) *. inv in
              accs.(base) <-
                accs.(base) +. (Float.round (s *. rx *. grid) /. grid);
              accs.(base + 1) <-
                accs.(base + 1) +. (Float.round (s *. ry *. grid) /. grid);
              accs.(base + 2) <-
                accs.(base + 2) +. (Float.round (s *. rz *. grid) /. grid)
            end
          end
          else if Bigarray.Array1.get fp (fb + 0) = Bh_global.kind_leaf
          then begin
            let n = int_of_float (Bigarray.Array1.get fp (fb + 6)) in
            for k = 0 to n - 1 do
              let bb = fb + 7 + (5 * k) in
              let sid = int_of_float (Bigarray.Array1.get fp bb) in
              if sid <> bid then begin
                spend work bid here params.body_body_ns;
                let rx = Bigarray.Array1.get fp (bb + 1) -. px
                and ry = Bigarray.Array1.get fp (bb + 2) -. py
                and rz = Bigarray.Array1.get fp (bb + 3) -. pz in
                let d2 = (rx *. rx) +. (ry *. ry) +. (rz *. rz) in
                if d2 = 0. then begin
                  accs.(base) <- accs.(base) +. 0.;
                  accs.(base + 1) <- accs.(base + 1) +. 0.;
                  accs.(base + 2) <- accs.(base + 2) +. 0.
                end
                else begin
                  let d2 = d2 +. (eps *. eps) in
                  let inv = 1. /. (d2 *. sqrt d2) in
                  let s = Bigarray.Array1.get fp (bb + 4) *. inv in
                  accs.(base) <-
                    accs.(base) +. (Float.round (s *. rx *. grid) /. grid);
                  accs.(base + 1) <-
                    accs.(base + 1) +. (Float.round (s *. ry *. grid) /. grid);
                  accs.(base + 2) <-
                    accs.(base + 2) +. (Float.round (s *. rz *. grid) /. grid)
                end
              end
            done
          end
          else begin
            let np = Heap.view_nptrs heaps view in
            for i = 0 to np - 1 do
              let child = Heap.view_ptr heaps view i in
              if not (Gptr.is_nil child) then A.read ctx child visit
            done
          end
        in
        fun ctx -> A.read ctx root visit)
      tree.Bh_global.owner_bodies.(node)
end
