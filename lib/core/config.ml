type auto_strip = { min_strip : int; max_strip : int; d_target : int }

type route = Off | All_dsts | Hot of int list

type t = {
  name : string;
  strip_size : int;
  agg_max : int;
  reuse : bool;
  auto : auto_strip option;
  route : route;
}

let check t =
  if t.strip_size <= 0 then invalid_arg "Config: strip_size must be positive";
  if t.agg_max <= 0 then invalid_arg "Config: agg_max must be positive";
  (match t.auto with
  | None -> ()
  | Some a ->
    if a.min_strip <= 0 then invalid_arg "Config: min_strip must be positive";
    if a.min_strip > a.max_strip then
      invalid_arg "Config: min_strip must not exceed max_strip";
    if t.strip_size < a.min_strip || t.strip_size > a.max_strip then
      invalid_arg "Config: initial strip_size outside [min_strip, max_strip]";
    if a.d_target <= 0 then invalid_arg "Config: d_target must be positive");
  (match t.route with
  | Off -> ()
  | All_dsts | Hot _ ->
    (* Routed aggregation holds a destination's updates across the whole
       phase so they combine before the tree hop; without [reuse] there is
       no combining map and routing would only add latency. *)
    if not t.reuse then invalid_arg "Config: route requires reuse";
    (match t.route with
    | Hot dsts ->
      if dsts = [] then invalid_arg "Config: Hot route needs destinations";
      List.iter
        (fun d ->
          if d < 0 then invalid_arg "Config: Hot route destination < 0")
        dsts
    | _ -> ()));
  t

let dpa ?(strip_size = 50) ?(agg_max = 64) ?(route = Off) () =
  check
    {
      name = Printf.sprintf "DPA(%d)" strip_size;
      strip_size;
      agg_max;
      reuse = true;
      auto = None;
      route;
    }

let dpa_auto ?(strip_size = 50) ?(min_strip = 10) ?(max_strip = 1000)
    ?(d_target = 2048) ?(agg_max = 64) ?(route = Off) () =
  check
    {
      name = Printf.sprintf "DPA(auto %d..%d)" min_strip max_strip;
      strip_size;
      agg_max;
      reuse = true;
      auto = Some { min_strip; max_strip; d_target };
      route;
    }

let pipeline_only ?(strip_size = 50) () =
  check
    {
      name = "pipeline";
      strip_size;
      agg_max = 1;
      reuse = false;
      auto = None;
      route = Off;
    }

let pipeline_aggregate ?(strip_size = 50) ?(agg_max = 64) () =
  check
    {
      name = "pipeline+agg";
      strip_size;
      agg_max;
      reuse = false;
      auto = None;
      route = Off;
    }
