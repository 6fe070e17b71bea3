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

type workload = { name : string; cells : seed:int -> cell list }

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

let workload name grid run =
  let cells ~seed =
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
  in
  { name; cells }

let counter c key =
  match List.assoc_opt key c.counters with
  | Some v -> v
  | None -> invalid_arg ("Matrix.counter: no counter " ^ key)

type column = {
  header : string;
  key : string;
  text : cell -> string;
  value : cell -> Dpa_obs.Json.t;
}

let config header =
  {
    header;
    key = "config";
    text = (fun c -> c.config);
    value = (fun c -> Dpa_obs.Json.Str c.config);
  }

let schedule header =
  {
    header;
    key = "schedule";
    text = (fun c -> c.schedule);
    value = (fun c -> Dpa_obs.Json.Str c.schedule);
  }

let time =
  {
    header = "TIME(s)";
    key = "time_s";
    text = (fun c -> Table.sec c.time_s);
    value = (fun c -> Dpa_obs.Json.Float c.time_s);
  }

let count header key =
  {
    header;
    key;
    text = (fun c -> string_of_int (counter c key));
    value = (fun c -> Dpa_obs.Json.Int (counter c key));
  }

let metric header key show f =
  {
    header;
    key;
    text = (fun c -> show (f c));
    value = (fun c -> Dpa_obs.Json.Float (f c));
  }

let result header =
  {
    header;
    key = "bit_identical";
    text = (fun c -> if c.bit_identical then "bit-identical" else "DIVERGED");
    value = (fun c -> Dpa_obs.Json.Bool c.bit_identical);
  }

type t = {
  name : string;
  title : string;
  seed : int;
  workloads : workload list;
  columns : column list;
  summary : (cell list -> string) option;
  witnesses : (string * (cell list -> bool)) list;
}

let run m =
  List.concat_map (fun (w : workload) -> w.cells ~seed:m.seed) m.workloads

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
      let columns = List.map (fun col -> (col.header, col.text)) m.columns in
      print_string (Table.render (Table.of_rows columns cells));
      print_newline ())
    rows;
  Option.iter (fun f -> Printf.printf "%s\n\n" (f cells)) m.summary

let json m cells =
  let open Dpa_obs.Json in
  Obj
    [
      ( "rows",
        List
          (List.map
             (fun (workload, cells) ->
               Obj
                 [
                   ("workload", Str workload);
                   ( "cells",
                     List
                       (List.map
                          (fun c ->
                            Obj
                              (List.map
                                 (fun col -> (col.key, col.value c))
                                 m.columns))
                          cells) );
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
