open Dpa_sim

let test_hit_after_access () =
  let c = Dcache.create ~lines:16 () in
  Alcotest.(check bool) "cold miss" false (Dcache.access c 7);
  Alcotest.(check bool) "hit" true (Dcache.access c 7);
  Alcotest.(check int) "hits" 1 (Dcache.hits c);
  Alcotest.(check int) "misses" 1 (Dcache.misses c)

let test_lru_within_set () =
  (* Direct-mapped 1-way, 1 set: every distinct key evicts. *)
  let c = Dcache.create ~assoc:1 ~lines:1 () in
  ignore (Dcache.access c 1);
  ignore (Dcache.access c 2);
  Alcotest.(check bool) "1 evicted" false (Dcache.access c 1)

let test_assoc_retains () =
  (* Fully-associative 4-way, 1 set: 4 keys fit. *)
  let c = Dcache.create ~assoc:4 ~lines:4 () in
  for k = 0 to 3 do
    ignore (Dcache.access c k)
  done;
  for k = 0 to 3 do
    if not (Dcache.access c k) then Alcotest.failf "key %d evicted" k
  done

let test_miss_rate () =
  let c = Dcache.create ~lines:8 () in
  ignore (Dcache.access c 0);
  ignore (Dcache.access c 0);
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Dcache.miss_rate c)

let qcheck_working_set_fits =
  QCheck.Test.make ~name:"a working set smaller than the cache never misses twice"
    ~count:100
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 7)))
    (fun (assoc, keys) ->
      (* Fully associative (1 set) with >= 8 ways holds keys 0..7. *)
      let c = Dcache.create ~assoc:(max 8 assoc) ~lines:(max 8 assoc) () in
      List.iter (fun k -> ignore (Dcache.access c k)) keys;
      let distinct = List.sort_uniq compare keys in
      Dcache.misses c = List.length distinct)

let test_cache_locality_experiment () =
  let tiny =
    { Dpa_harness.Runconf.small with Dpa_harness.Runconf.bh_bodies = 512 }
  in
  let points = Dpa_harness.Experiment.(rows ~points:[ 256 ] a9) tiny in
  match points with
  | [ p ] ->
    (* Run 0 replays the trace in random body order, run 1 in tree order;
       each run's value is its miss rate. *)
    let miss i = p.Dpa_harness.Experiment.runs.(i).Dpa_harness.Experiment.value in
    Alcotest.(check bool) "tree order no worse than random" true
      (miss 1 <= miss 0 +. 1e-9)
  | _ -> Alcotest.fail "expected one point"

let suites =
  [
    ( "sim.dcache",
      [
        Alcotest.test_case "hit after access" `Quick test_hit_after_access;
        Alcotest.test_case "lru within set" `Quick test_lru_within_set;
        Alcotest.test_case "associativity retains" `Quick test_assoc_retains;
        Alcotest.test_case "miss rate" `Quick test_miss_rate;
        QCheck_alcotest.to_alcotest qcheck_working_set_fits;
        Alcotest.test_case "locality experiment" `Quick
          test_cache_locality_experiment;
      ] );
  ]
