let product x = x + 1
let perfbench = 2
let perfbench_and_test = 3
let test = 4
let unreferenced = 5
let aliased = 6
let packed = 7

module type S = sig
  val packed : int
end

module Make (_ : sig end) = struct
  let made = 8
  let unmade = 9
end

type r = { read : int; written : int }
