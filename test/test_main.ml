let () =
  Alcotest.run "dpa"
    (Test_util.suites @ Test_sim.suites @ Test_heap.suites @ Test_msg.suites
   @ Test_runtime.suites @ Test_baselines.suites @ Test_bh.suites @ Test_fmm.suites @ Test_compiler.suites @ Test_harness.suites @ Test_runtime_behavior.suites @ Test_properties.suites @ Test_em3d.suites @ Test_reduction.suites @ Test_afmm.suites @ Test_parser.suites @ Test_trace.suites @ Test_dcache.suites @ Test_validation.suites @ Test_obs.suites @ Test_fault.suites @ Test_adaptive.suites
   @ Test_critpath.suites @ Test_integrity.suites @ Test_route_crash.suites
   @ Test_expr_diff.suites)
