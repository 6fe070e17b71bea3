module F = Deadcode_fixture.Fix

let () = print_int (F.test + F.perfbench_and_test + F.aliased)
