open Deadcode_fixture

let () = print_int (Fix.perfbench + Fix.perfbench_and_test)
