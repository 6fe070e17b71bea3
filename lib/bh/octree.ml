open Dpa_util

type kind = Leaf of int array | Internal of int array

type cell = {
  center : Vec3.t;
  half : float;
  mutable mass : float;
  mutable com : Vec3.t;
  mutable node : node;
}

and node = L of int list * int (* bodies (reversed), count *) | I of int array

type t = {
  cells : cell Dynarray.t;
  root : int;
  bodies : Body.t array;
}

let max_depth = 64

let new_cell cells ~center ~half =
  Dynarray.add cells
    { center; half; mass = 0.; com = Vec3.zero; node = L ([], 0) }

let octant (center : Vec3.t) (p : Vec3.t) =
  (if p.Vec3.x >= center.Vec3.x then 1 else 0)
  lor (if p.Vec3.y >= center.Vec3.y then 2 else 0)
  lor if p.Vec3.z >= center.Vec3.z then 4 else 0

let child_center (center : Vec3.t) half oct =
  let q = half /. 2. in
  Vec3.make
    (center.Vec3.x +. if oct land 1 <> 0 then q else -.q)
    (center.Vec3.y +. if oct land 2 <> 0 then q else -.q)
    (center.Vec3.z +. if oct land 4 <> 0 then q else -.q)

let bounding_cube bodies =
  let inf = infinity in
  let lo = ref (Vec3.make inf inf inf)
  and hi = ref (Vec3.make neg_infinity neg_infinity neg_infinity) in
  Array.iter
    (fun b ->
      let p = b.Body.pos in
      lo :=
        Vec3.make (min !lo.Vec3.x p.Vec3.x) (min !lo.Vec3.y p.Vec3.y)
          (min !lo.Vec3.z p.Vec3.z);
      hi :=
        Vec3.make (max !hi.Vec3.x p.Vec3.x) (max !hi.Vec3.y p.Vec3.y)
          (max !hi.Vec3.z p.Vec3.z))
    bodies;
  let center = Vec3.scale 0.5 (Vec3.add !lo !hi) in
  let ext = Vec3.sub !hi !lo in
  let side = max ext.Vec3.x (max ext.Vec3.y ext.Vec3.z) in
  (* A little slack so bodies on the boundary stay strictly inside. *)
  (center, max 1e-9 (side *. 0.5 *. 1.0001))

let build ?(leaf_cap = 8) bodies =
  if Array.length bodies = 0 then invalid_arg "Octree.build: no bodies";
  if leaf_cap <= 0 then invalid_arg "Octree.build: leaf_cap must be positive";
  let cells = Dynarray.create () in
  let center, half = bounding_cube bodies in
  let root = new_cell cells ~center ~half in
  let rec insert ci bid depth =
    let c = Dynarray.get cells ci in
    match c.node with
    | L (ids, n) when n < leaf_cap || depth >= max_depth ->
      c.node <- L (bid :: ids, n + 1)
    | L (ids, _) ->
      (* Split: push existing bodies down, then retry. *)
      c.node <- I (Array.make 8 (-1));
      List.iter (fun b -> insert_into_child ci b (depth + 1)) ids;
      insert_into_child ci bid (depth + 1)
    | I _ -> insert_into_child ci bid (depth + 1)
  and insert_into_child ci bid depth =
    let c = Dynarray.get cells ci in
    match c.node with
    | I children ->
      let oct = octant c.center bodies.(bid).Body.pos in
      let child =
        if children.(oct) >= 0 then children.(oct)
        else begin
          let cc =
            new_cell cells ~center:(child_center c.center c.half oct)
              ~half:(c.half /. 2.)
          in
          children.(oct) <- cc;
          cc
        end
      in
      insert child bid depth
    | L _ -> assert false
  in
  Array.iteri (fun bid _ -> insert root bid 0) bodies;
  (* Bottom-up mass and center-of-mass. *)
  let rec summarize ci =
    let c = Dynarray.get cells ci in
    match c.node with
    | L (ids, _) ->
      let m = ref 0. and acc = ref Vec3.zero in
      List.iter
        (fun bid ->
          let b = bodies.(bid) in
          m := !m +. b.Body.mass;
          acc := Vec3.axpy b.Body.mass b.Body.pos !acc)
        ids;
      c.mass <- !m;
      c.com <- (if !m > 0. then Vec3.scale (1. /. !m) !acc else c.center)
    | I children ->
      let m = ref 0. and acc = ref Vec3.zero in
      Array.iter
        (fun ch ->
          if ch >= 0 then begin
            summarize ch;
            let cc = Dynarray.get cells ch in
            m := !m +. cc.mass;
            acc := Vec3.axpy cc.mass cc.com !acc
          end)
        children;
      c.mass <- !m;
      c.com <- (if !m > 0. then Vec3.scale (1. /. !m) !acc else c.center)
  in
  summarize root;
  { cells; root; bodies }

let bodies t = t.bodies
let root t = t.root
let ncells t = Dynarray.length t.cells
let center t i = (Dynarray.get t.cells i).center
let half t i = (Dynarray.get t.cells i).half
let mass t i = (Dynarray.get t.cells i).mass
let com t i = (Dynarray.get t.cells i).com

let kind t i =
  match (Dynarray.get t.cells i).node with
  | L (ids, _) -> Leaf (Array.of_list (List.rev ids))
  | I children -> Internal children

let nbodies t i =
  let rec count ci =
    match (Dynarray.get t.cells ci).node with
    | L (_, n) -> n
    | I children ->
      Array.fold_left (fun acc ch -> if ch >= 0 then acc + count ch else acc) 0 children
  in
  count i

let depth t =
  let rec go ci =
    match (Dynarray.get t.cells ci).node with
    | L _ -> 1
    | I children ->
      1
      + Array.fold_left
          (fun acc ch -> if ch >= 0 then max acc (go ch) else acc)
          0 children
  in
  go t.root

let dfs_body_order t =
  let out = Dynarray.create () in
  let rec go ci =
    match (Dynarray.get t.cells ci).node with
    | L (ids, _) -> List.iter (fun b -> ignore (Dynarray.add out b)) (List.rev ids)
    | I children -> Array.iter (fun ch -> if ch >= 0 then go ch) children
  in
  go t.root;
  Array.init (Dynarray.length out) (Dynarray.get out)

let iter_cells_postorder t f =
  let rec go ci =
    (match (Dynarray.get t.cells ci).node with
    | L _ -> ()
    | I children -> Array.iter (fun ch -> if ch >= 0 then go ch) children);
    f ci
  in
  go t.root
