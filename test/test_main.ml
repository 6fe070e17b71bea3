(* Every case runs under limits, so a case that never finishes, or grows
   its heap without bound (a scheduler bug that keeps a phase
   dispatching), fails by suite and name instead of stalling the run or
   exhausting the host's memory: 60 s of wall time and 512 MiB of major
   heap, where the whole suite takes a few seconds and peaks near 60 MB.
   A timer ticks every second while a case runs. *)
let limit_s = 60
let limit_words = 1 lsl 26

exception Limit of string

let running = ref ""
let elapsed = ref 0

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period; it_value = period })

(* Raised again at every later tick until the case returns, so code that
   catches it (a QCheck property, then its shrinking) is cut off again. *)
let tick _ =
  incr elapsed;
  if !elapsed >= limit_s then
    raise
      (Limit (Printf.sprintf "%s: still running after %d s" !running limit_s))
  else if (Gc.quick_stat ()).Gc.heap_words > limit_words then
    raise
      (Limit
         (Printf.sprintf "%s: major heap past %d MiB" !running
            (limit_words / (1 lsl 17))))

let () =
  Printexc.register_printer (function Limit m -> Some m | _ -> None);
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle tick)

let limited suite (name, speed, f) =
  let case = suite ^ " / " ^ name in
  ( name,
    speed,
    fun x ->
      running := case;
      elapsed := 0;
      set_timer 1.;
      Fun.protect
        ~finally:(fun () -> set_timer 0.)
        (fun () -> try f x with Limit m -> Alcotest.fail m) )

let () =
  Alcotest.run "dpa"
    (List.map
       (fun (suite, cases) -> (suite, List.map (limited suite) cases))
       (Test_util.suites @ Test_sim.suites @ Test_heap.suites @ Test_msg.suites
      @ Test_runtime.suites @ Test_baselines.suites @ Test_bh.suites
      @ Test_fmm.suites @ Test_compiler.suites @ Test_harness.suites
      @ Test_runtime_behavior.suites @ Test_properties.suites @ Test_em3d.suites
      @ Test_reduction.suites @ Test_afmm.suites @ Test_parser.suites
      @ Test_trace.suites @ Test_dcache.suites @ Test_validation.suites
      @ Test_obs.suites @ Test_fault.suites @ Test_adaptive.suites
      @ Test_critpath.suites @ Test_integrity.suites @ Test_route_crash.suites
      @ Test_expr_diff.suites))
