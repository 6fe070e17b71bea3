type t = { x : float; y : float; z : float }

let zero = { x = 0.; y = 0.; z = 0. }
let make x y z = { x; y; z }
let add a b = { x = a.x +. b.x; y = a.y +. b.y; z = a.z +. b.z }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y; z = a.z -. b.z }
let scale s a = { x = s *. a.x; y = s *. a.y; z = s *. a.z }
let dot a b = (a.x *. b.x) +. (a.y *. b.y) +. (a.z *. b.z)
let norm2 a = dot a a
let norm a = sqrt (norm2 a)
let dist a b = norm (sub a b)
let axpy a x y = { x = (a *. x.x) +. y.x; y = (a *. x.y) +. y.y; z = (a *. x.z) +. y.z }

let approx_equal ?(tol = 1e-9) a b =
  let scale = max 1. (max (norm a) (norm b)) in
  norm (sub a b) <= tol *. scale

