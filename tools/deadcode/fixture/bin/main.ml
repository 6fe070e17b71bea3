let r = { Deadcode_fixture.Fix.read = 1; written = 2 }
let m = (module Deadcode_fixture.Fix : Deadcode_fixture.Fix.S)

module Made = Deadcode_fixture.Fix.Make (struct end)

let () =
  let module M = (val m) in
  print_int (Deadcode_fixture.Fix.product r.read + M.packed + Made.made)
