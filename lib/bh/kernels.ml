let accel ~eps ~pos ~src_pos ~src_mass =
  let r = Vec3.sub src_pos pos in
  let d2 = Vec3.norm2 r in
  if d2 = 0. then Vec3.zero
  else
    let d2 = d2 +. (eps *. eps) in
    let inv = 1. /. (d2 *. sqrt d2) in
    Vec3.scale (src_mass *. inv) r

let opened ~theta ~pos ~com ~half =
  let d = Vec3.dist pos com in
  let side = 2. *. half in
  side >= theta *. d
