open Dpa_sim

type plan = { faults : Fault.spec option; seed : int }

let engine ?adaptive_rto ~nodes plan =
  let machine =
    Machine.make ~nodes ?faults:plan.faults ~fault_seed:plan.seed
      ?adaptive_rto ()
  in
  let engine = Engine.create machine in
  (* [Engine.create] falls back to the process-global plan when the
     machine carries none: the matrix owns its fault plans. *)
  if plan.faults = None then Engine.set_fault engine None;
  engine

type 'r outcome = {
  result : 'r;
  engine : Engine.t;
  time_s : float;
  stats : Dpa.Dpa_stats.t;
  extra : (string * int) list;
}

type schedule = { label : string; spec : int -> string }

let fixed label spec = { label; spec = (fun _ -> spec) }
let derived label spec = { label; spec }
let crash_ns elapsed = max 1_000 (elapsed / 8)

let crash_knobs elapsed =
  Printf.sprintf "crashes=1,crash-ns=%d,horizon-ns=%d" (crash_ns elapsed)
    (max 1_000 (elapsed / 2))

let crashing label prefix =
  derived label (fun e ->
      if prefix = "" then crash_knobs e else prefix ^ "," ^ crash_knobs e)

type cell = {
  workload : string;
  config : string;
  schedule : string;
  time_s : float;
  counters : (string * int) list;
  bit_identical : bool;
}

type workload = seed:int -> cell list

let counters o =
  let am f = match Dpa_msg.Am.stats o.engine with None -> 0 | Some s -> f s in
  let s = o.stats in
  [
    ( "bytes_sent",
      Array.fold_left
        (fun acc (n : Node.t) -> acc + n.Node.bytes_sent)
        0 (Engine.nodes o.engine) );
    ( "overhead_bytes",
      am (fun a ->
          a.Dpa_msg.Am.retransmit_bytes
          + a.Dpa_msg.Am.acks
            * (Engine.machine o.engine).Machine.msg_header_bytes) );
    ("retransmits", am (fun a -> a.Dpa_msg.Am.retransmits));
    ("dups_suppressed", am (fun a -> a.Dpa_msg.Am.dups_suppressed));
    ("fenced", am (fun a -> a.Dpa_msg.Am.fenced));
    ("corrupt_dropped", am (fun a -> a.Dpa_msg.Am.corrupt_dropped));
    ( "drops",
      match Engine.fault o.engine with
      | None -> 0
      | Some f -> Fault.drops f + Fault.outage_drops f + Fault.crash_drops f );
    ("rt_retries", s.Dpa.Dpa_stats.rt_retries);
    ("crashes", s.Dpa.Dpa_stats.crashes);
    ("crash_refetches", s.Dpa.Dpa_stats.crash_refetches);
    ("wal_truncated", s.Dpa.Dpa_stats.wal_truncated);
    ("wal_repaired", s.Dpa.Dpa_stats.wal_repaired);
    ( "reissues",
      s.Dpa.Dpa_stats.upd_reissues + s.Dpa.Dpa_stats.routed_reissues );
  ]
  @ o.extra

let workload name grid run ~seed =
  let config0 = fst (List.hd grid) in
  let reference = run ~config:config0 { faults = None; seed } in
  let elapsed = Engine.elapsed reference.engine in
  List.concat_map
    (fun (config, schedules) ->
      List.map
        (fun sch ->
          let faults =
            match sch.spec elapsed with
            | "off" -> None
            | spec -> (
              match Fault.spec_of_string spec with
              | Ok s -> Some s
              | Error msg -> invalid_arg (Printf.sprintf "%s: %s" name msg))
          in
          let o =
            if config = config0 && faults = None then reference
            else run ~config { faults; seed }
          in
          {
            workload = name;
            config;
            schedule = sch.label;
            time_s = o.time_s;
            counters = counters o;
            bit_identical = o.result = reference.result;
          })
        schedules)
    grid

let counter c key =
  match List.assoc_opt key c.counters with
  | Some v -> v
  | None -> invalid_arg ("Matrix.counter: no counter " ^ key)

let config header = Table.(column header "config" string (fun c -> c.config))

let schedule header =
  Table.(column header "schedule" string (fun c -> c.schedule))

let time = Table.(column "TIME(s)" "time_s" (float sec) (fun c -> c.time_s))
let count header key = Table.(column header key int (fun c -> counter c key))
let metric header key show f = Table.(column header key (float show) f)

let result header =
  let kind = Table.bool ~yes:"bit-identical" ~no:"DIVERGED" in
  Table.column header "bit_identical" kind (fun c -> c.bit_identical)

type t = {
  name : string;
  title : string;
  seed : int;
  workloads : workload list;
  columns : cell Table.column list;
  summary : (cell list -> string) option;
  witnesses : (string * (cell list -> bool)) list;
}

let run m =
  List.concat_map (fun (w : workload) -> w ~seed:m.seed) m.workloads

(* Cells grouped by workload, in run order. *)
let rows cells =
  List.fold_right
    (fun c acc ->
      match acc with
      | (w, cs) :: rest when w = c.workload -> (w, c :: cs) :: rest
      | _ -> (c.workload, [ c ]) :: acc)
    cells []

let print m cells =
  print_endline m.title;
  let rows = rows cells in
  List.iter
    (fun (workload, cells) ->
      if List.length rows > 1 then print_endline workload;
      print_string (Table.render (Table.of_rows m.columns cells));
      print_newline ())
    rows;
  Option.iter (fun f -> Printf.printf "%s\n\n" (f cells)) m.summary

let json m cells =
  Dpa_obs.Json.Obj
    [
      ( "rows",
        List
          (List.map
             (fun (workload, cells) ->
               Dpa_obs.Json.Obj
                 [
                   ("workload", Str workload);
                   ("cells", Table.json_rows m.columns cells);
                 ])
             (rows cells)) );
    ]

let failures m cells =
  List.filter_map
    (fun c ->
      if c.bit_identical then None
      else
        Some
          (Printf.sprintf
             "%s: workload %S, config %S, schedule %S diverged from the \
              fault-free reference"
             m.name c.workload c.config c.schedule))
    cells
  @ List.filter_map
      (fun (what, holds) ->
        if holds cells then None
        else Some (Printf.sprintf "%s: witness failed: %s" m.name what))
      m.witnesses

let total key cells = List.fold_left (fun a c -> a + counter c key) 0 cells
let nonzero key cells = total key cells > 0
let diverged cells =
  List.length (List.filter (fun c -> not c.bit_identical) cells)
