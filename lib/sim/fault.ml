type spec = {
  drop : float;
  dup : float;
  delay : float;
  jitter_ns : int;
  outages : int;
  outage_ns : int;
  outage_horizon_ns : int;
  slow_node : int;
  slow_factor : float;
  crashes : int;
  crash_ns : int;
  corrupt : float;
  torn_wal : float;
}

let none =
  {
    drop = 0.;
    dup = 0.;
    delay = 0.;
    jitter_ns = 10_000;
    outages = 0;
    outage_ns = 2_000_000;
    outage_horizon_ns = 50_000_000;
    slow_node = -1;
    slow_factor = 1.;
    crashes = 0;
    crash_ns = 3_000_000;
    corrupt = 0.;
    torn_wal = 0.;
  }

let light =
  { none with drop = 0.01; dup = 0.005; delay = 0.05; jitter_ns = 10_000 }

let heavy =
  {
    none with
    drop = 0.10;
    dup = 0.02;
    delay = 0.10;
    jitter_ns = 50_000;
    outages = 1;
  }

let check spec =
  let prob name p =
    if p < 0. || p >= 1. then
      invalid_arg
        (Printf.sprintf "Fault: %s must be in [0,1), got %g" name p)
  in
  prob "drop" spec.drop;
  prob "dup" spec.dup;
  prob "delay" spec.delay;
  if spec.jitter_ns < 0 then invalid_arg "Fault: jitter must be >= 0";
  if spec.outages < 0 then invalid_arg "Fault: outages must be >= 0";
  if spec.outage_ns < 0 then invalid_arg "Fault: outage-ns must be >= 0";
  if spec.outage_horizon_ns < 0 then
    invalid_arg "Fault: horizon-ns must be >= 0";
  if spec.slow_factor < 1. then invalid_arg "Fault: slow-factor must be >= 1";
  if spec.crashes < 0 then invalid_arg "Fault: crashes must be >= 0";
  if spec.crash_ns < 0 then invalid_arg "Fault: crash-ns must be >= 0";
  prob "corrupt" spec.corrupt;
  (* Unlike the per-message probabilities, torn-wal = 1 is meaningful and
     useful: "every crash tears the log tail" is the deterministic worst
     case the recovery tests pin down. *)
  if spec.torn_wal < 0. || spec.torn_wal > 1. then
    invalid_arg
      (Printf.sprintf "Fault: torn-wal must be in [0,1], got %g" spec.torn_wal);
  spec

let valid_keys =
  "drop, dup, delay, jitter-ns, outages, outage-ns, crashes, crash-ns, \
   horizon-ns, slow-node, slow-factor, corrupt, torn-wal"

let spec_of_string str =
    let parse_field acc field =
      match acc with
      | Error _ as e -> e
      | Ok spec -> (
        match String.index_opt field '=' with
        | None ->
          Error
            (Printf.sprintf "Fault: expected key=value, got %S (valid keys: %s)"
               field valid_keys)
        | Some i -> (
          let key = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          let f () =
            match float_of_string_opt v with
            | Some f -> Ok f
            | None -> Error (Printf.sprintf "Fault: bad number %S for %s" v key)
          in
          let n () =
            match int_of_string_opt v with
            | Some n -> Ok n
            | None -> Error (Printf.sprintf "Fault: bad integer %S for %s" v key)
          in
          let ( let* ) = Result.bind in
          match key with
          | "drop" ->
            let* x = f () in
            Ok { spec with drop = x }
          | "dup" ->
            let* x = f () in
            Ok { spec with dup = x }
          | "delay" ->
            let* x = f () in
            Ok { spec with delay = x }
          | "jitter" | "jitter-ns" ->
            let* x = n () in
            Ok { spec with jitter_ns = x }
          | "outages" ->
            let* x = n () in
            Ok { spec with outages = x }
          | "outage" | "outage-ns" ->
            let* x = n () in
            Ok { spec with outage_ns = x }
          | "horizon" | "horizon-ns" ->
            let* x = n () in
            Ok { spec with outage_horizon_ns = x }
          | "slow-node" ->
            let* x = n () in
            Ok { spec with slow_node = x }
          | "slow-factor" ->
            let* x = f () in
            Ok { spec with slow_factor = x }
          | "crashes" ->
            let* x = n () in
            Ok { spec with crashes = x }
          | "crash" | "crash-ns" ->
            let* x = n () in
            Ok { spec with crash_ns = x }
          | "corrupt" ->
            let* x = f () in
            Ok { spec with corrupt = x }
          | "torn-wal" | "torn" ->
            let* x = f () in
            Ok { spec with torn_wal = x }
          | _ ->
            Error
              (Printf.sprintf "Fault: unknown knob %S (valid keys: %s)" key
                 valid_keys)))
    in
    (* The first field may be a preset name the remaining knobs override,
       e.g. "heavy,crashes=1". *)
    let base, fields =
      match String.split_on_char ',' str with
      | first :: rest when not (String.contains first '=') -> (
        match first with
        | "none" -> (Ok none, rest)
        | "light" -> (Ok light, rest)
        | "heavy" -> (Ok heavy, rest)
        | _ ->
          ( Error
              (Printf.sprintf
                 "Fault: unknown preset %S (presets: none, light, heavy; \
                  valid keys: %s)"
                 first valid_keys),
            rest ))
      | fields -> (Ok none, fields)
    in
    match List.fold_left parse_field base fields with
    | Error _ as e -> e
    | Ok spec -> ( try Ok (check spec) with Invalid_argument m -> Error m)

type t = {
  spec : spec;
  rng : Dpa_util.Rng.t;
  (* The corruption and tear streams are seeded independently of [rng]
     (plain xor-derived seeds, no [Rng.split] — a split consumes a parent
     draw) so enabling [corrupt] or [torn_wal] leaves the legacy
     drop/dup/delay/window schedule bit-identical, and [corrupt = 0]
     replays exactly as a spec without the knob. *)
  corrupt_rng : Dpa_util.Rng.t;
  torn_rng : Dpa_util.Rng.t;
  windows : (int * int) array array;
  crash_windows : (int * int) array array;
  mutable drops : int;
  mutable dups : int;
  mutable delayed : int;
  mutable outage_drops : int;
  mutable crash_drops : int;
  mutable corruptions : int;
  mutable tears : int;
  mutable copies : int;  (* the last [Deliver] verdict's copies, 1 or 2 *)
  mutable extra0 : int;  (* ... and their extra delays *)
  mutable extra1 : int;
}

let make ?(seed = 0x5EED) spec ~nodes =
  let spec = check spec in
  if nodes <= 0 then invalid_arg "Fault.make: nodes must be positive";
  let rng = Dpa_util.Rng.create ~seed in
  (* Outage and crash windows are drawn up front (one independent stream
     per node) so the schedule is a pure function of (spec, seed, nodes) —
     per-message draws later cannot perturb it. Crash draws come after the
     outage draws on the same per-node stream, so a spec with [crashes = 0]
     yields exactly the schedule it did before crashes existed. *)
  let windows = Array.make nodes [||] in
  let crash_windows = Array.make nodes [||] in
  for n = 0 to nodes - 1 do
    let node_rng = Dpa_util.Rng.split rng in
    windows.(n) <-
      Array.init spec.outages (fun _ ->
          let start =
            Dpa_util.Rng.int node_rng (max 1 spec.outage_horizon_ns)
          in
          (start, start + spec.outage_ns));
    crash_windows.(n) <-
      Array.init spec.crashes (fun _ ->
          let start =
            Dpa_util.Rng.int node_rng (max 1 spec.outage_horizon_ns)
          in
          (start, start + spec.crash_ns))
  done;
  Array.iter (fun w -> Array.sort compare w) windows;
  Array.iter (fun w -> Array.sort compare w) crash_windows;
  {
    spec;
    rng;
    corrupt_rng = Dpa_util.Rng.create ~seed:(seed lxor 0x51C6C0DE);
    torn_rng = Dpa_util.Rng.create ~seed:(seed lxor 0x7EA410C5);
    windows;
    crash_windows;
    drops = 0;
    dups = 0;
    delayed = 0;
    outage_drops = 0;
    crash_drops = 0;
    corruptions = 0;
    tears = 0;
    copies = 0;
    extra0 = 0;
    extra1 = 0;
  }

(* Closure-free scans: the transport asks four of these per judged
   transmission. *)
let rec in_window (w : (int * int) array) time i =
  i < Array.length w
  &&
  let s, e = Array.unsafe_get w i in
  (time >= s && time < e) || in_window w time (i + 1)

let in_outage t ~node ~time =
  node >= 0 && node < Array.length t.windows && in_window t.windows.(node) time 0

let outage_windows t ~node =
  if node < 0 || node >= Array.length t.windows then
    invalid_arg "Fault.outage_windows: bad node";
  Array.to_list t.windows.(node)

let in_crash t ~node ~time =
  node >= 0
  && node < Array.length t.crash_windows
  && in_window t.crash_windows.(node) time 0

let crash_windows t ~node =
  if node < 0 || node >= Array.length t.crash_windows then
    invalid_arg "Fault.crash_windows: bad node";
  Array.to_list t.crash_windows.(node)

let has_crashes t = t.spec.crashes > 0

type verdict = Deliver | Drop | Outage

(* An optional injected delay: one coin against [delay], and on heads a
   uniform draw in [1, jitter_ns]. *)
let jitter t =
  if t.spec.delay > 0. && Dpa_util.Rng.chance t.rng t.spec.delay then begin
    t.delayed <- t.delayed + 1;
    1 + Dpa_util.Rng.int t.rng (Int.max 1 t.spec.jitter_ns)
  end
  else 0

let judge t ~now ~arrival ~src ~dst ~transfer_ns =
  if in_crash t ~node:src ~time:now || in_crash t ~node:dst ~time:arrival
  then begin
    t.crash_drops <- t.crash_drops + 1;
    Outage
  end
  else if
    in_outage t ~node:src ~time:now || in_outage t ~node:dst ~time:arrival
  then begin
    t.outage_drops <- t.outage_drops + 1;
    Outage
  end
  else if t.spec.drop > 0. && Dpa_util.Rng.chance t.rng t.spec.drop then begin
    t.drops <- t.drops + 1;
    Drop
  end
  else begin
    let slow =
      t.spec.slow_factor > 1.
      && (src = t.spec.slow_node || dst = t.spec.slow_node)
    in
    let base =
      if slow then
        int_of_float ((t.spec.slow_factor -. 1.) *. float_of_int transfer_ns)
      else 0
    in
    let first = base + jitter t in
    t.extra0 <- first;
    if t.spec.dup > 0. && Dpa_util.Rng.chance t.rng t.spec.dup then begin
      t.dups <- t.dups + 1;
      (* The duplicate trails the original by its own positive jitter, so
         the two copies never race on an identical timestamp. *)
      t.extra1 <- first + 1 + Dpa_util.Rng.int t.rng (Int.max 1 t.spec.jitter_ns);
      t.copies <- 2
    end
    else t.copies <- 1;
    Deliver
  end

let copies t = t.copies

let extra t i =
  if i < 0 || i >= t.copies then invalid_arg "Fault.extra: no such copy";
  if i = 0 then t.extra0 else t.extra1

let drops t = t.drops
let dups t = t.dups
let delayed t = t.delayed
let outage_drops t = t.outage_drops
let crash_drops t = t.crash_drops
let corruptions t = t.corruptions
let tears t = t.tears

(* --- integrity fault classes ------------------------------------------- *)

(* One draw per delivered copy (the transport calls this at transmit time,
   inside the engine's deterministic event order). [None] without a single
   stream access when the knob is off, so schedules replay identically. *)
let corrupt_copy t =
  if t.spec.corrupt <= 0. then None
  else if Dpa_util.Rng.chance t.corrupt_rng t.spec.corrupt then begin
    t.corruptions <- t.corruptions + 1;
    Some (Dpa_util.Rng.int t.corrupt_rng (1 lsl 30))
  end
  else None

type tear = {
  tear_log : [ `Update_wal | `Journal ];
  tear_slot : bool;
  tear_flip : bool;
  tear_pos : int;
}

(* Per crash event: for each durable log of the victim, decide whether its
   tail is torn and how. The position/kind draws happen only for torn logs
   and all come from the dedicated stream, so crash schedules themselves
   never shift when the knob is toggled. *)
let draw_tears t =
  if t.spec.torn_wal <= 0. then []
  else
    List.filter_map
      (fun log ->
        if Dpa_util.Rng.chance t.torn_rng t.spec.torn_wal then begin
          t.tears <- t.tears + 1;
          let tear_slot = Dpa_util.Rng.int t.torn_rng 4 = 0 in
          let tear_flip = Dpa_util.Rng.int t.torn_rng 2 = 0 in
          let tear_pos = Dpa_util.Rng.int t.torn_rng (1 lsl 30) in
          Some { tear_log = log; tear_slot; tear_flip; tear_pos }
        end
        else None)
      [ `Update_wal; `Journal ]

(* Process-global default, mirroring [Dpa_obs.Sink.set_global]: drivers
   (e.g. the CLI's [--faults] flag) can perturb every engine created during
   a run without threading a value through the experiment harness. *)
let global_spec : (spec * int) option ref = ref None
let set_global ?(seed = 0x5EED) spec =
  global_spec := Option.map (fun s -> (check s, seed)) spec
let global () = !global_spec
