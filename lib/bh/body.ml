type t = {
  id : int;
  mass : float;
  mutable pos : Vec3.t;
  mutable vel : Vec3.t;
  mutable acc : Vec3.t;
}

let make ~id ~mass ~pos ~vel = { id; mass; pos; vel; acc = Vec3.zero }

let advance bodies ~dt =
  Array.iter
    (fun b ->
      b.vel <- Vec3.axpy dt b.acc b.vel;
      b.pos <- Vec3.axpy dt b.vel b.pos)
    bodies

let total_momentum bodies =
  Array.fold_left (fun acc b -> Vec3.axpy b.mass b.vel acc) Vec3.zero bodies
