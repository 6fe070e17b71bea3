type counter = { mutable c : int }

(* Bucket 0 holds value 0; bucket b >= 1 holds [2^(b-1), 2^b). 63 buckets
   cover the whole non-negative int range. *)
let nbuckets = 63

type histogram = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable hmin : int;
  mutable hmax : int;
}

type instrument = C of counter | H of histogram

type t = { table : (string, instrument) Hashtbl.t }

let create () = { table = Hashtbl.create 32 }

let lookup t name ~kind ~make ~cast =
  match Hashtbl.find_opt t.table name with
  | Some i -> (
    match cast i with
    | Some x -> x
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics.%s: %S is registered as another kind" kind
           name))
  | None ->
    let x = make () in
    Hashtbl.add t.table name x;
    (match cast x with Some x -> x | None -> assert false)

let counter t name =
  lookup t name ~kind:"counter"
    ~make:(fun () -> C { c = 0 })
    ~cast:(function C c -> Some c | _ -> None)

let add c n = c.c <- c.c + n
let counter_value c = c.c

let histogram t name =
  lookup t name ~kind:"histogram"
    ~make:(fun () ->
      H
        {
          buckets = Array.make nbuckets 0;
          count = 0;
          sum = 0;
          hmin = max_int;
          hmax = min_int;
        })
    ~cast:(function H h -> Some h | _ -> None)

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do
      b := !b + 1;
      v := !v lsr 1
    done;
    !b
  end

let bucket_bounds b = if b = 0 then (0, 0) else (1 lsl (b - 1), (1 lsl b) - 1)

let observe h v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum + v;
  if v < h.hmin then h.hmin <- v;
  if v > h.hmax then h.hmax <- v

let percentile h q =
  if h.count = 0 then 0.
  else begin
    let target =
      let t = int_of_float (ceil (q *. float_of_int h.count)) in
      if t < 1 then 1 else if t > h.count then h.count else t
    in
    let rec find b cum =
      if b >= nbuckets then float_of_int h.hmax
      else begin
        let here = h.buckets.(b) in
        if cum + here >= target then begin
          let lo, hi = bucket_bounds b in
          let frac =
            float_of_int (target - cum) /. float_of_int (max 1 here)
          in
          float_of_int lo +. (frac *. float_of_int (hi - lo))
        end
        else find (b + 1) (cum + here)
      end
    in
    let v = find 0 0 in
    let v = Float.max v (float_of_int h.hmin) in
    Float.min v (float_of_int h.hmax)
  end

type summary = {
  count : int;
  sum : int;
  min : int;
  max : int;
  p50 : float;
  p90 : float;
  p99 : float;
}

let summary (h : histogram) =
  if h.count = 0 then
    { count = 0; sum = 0; min = 0; max = 0; p50 = 0.; p90 = 0.; p99 = 0. }
  else
    {
      count = h.count;
      sum = h.sum;
      min = h.hmin;
      max = h.hmax;
      p50 = percentile h 0.50;
      p90 = percentile h 0.90;
      p99 = percentile h 0.99;
    }

let sorted_bindings t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram_json h =
  let s = summary h in
  let buckets =
    List.filter_map
      (fun b ->
        if h.buckets.(b) = 0 then None
        else begin
          let lo, hi = bucket_bounds b in
          Some
            (Json.Obj
               [
                 ("lo", Json.Int lo);
                 ("hi", Json.Int hi);
                 ("count", Json.Int h.buckets.(b));
               ])
        end)
      (List.init nbuckets Fun.id)
  in
  Json.Obj
    [
      ("count", Json.Int s.count);
      ("sum", Json.Int s.sum);
      ("min", Json.Int s.min);
      ("max", Json.Int s.max);
      ("p50", Json.Float s.p50);
      ("p90", Json.Float s.p90);
      ("p99", Json.Float s.p99);
      ("buckets", Json.List buckets);
    ]

let to_json t =
  let bindings = sorted_bindings t in
  let pick f = List.filter_map f bindings in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (pick (function
            | name, C c -> Some (name, Json.Int c.c)
            | _ -> None)) );
      (* Kept, empty, for readers of the --metrics document. *)
      ("gauges", Json.Obj []);
      ( "histograms",
        Json.Obj
          (pick (function
            | name, H h -> Some (name, histogram_json h)
            | _ -> None)) );
    ]

let report t =
  let buf = Buffer.create 1024 in
  let bindings = sorted_bindings t in
  let counters =
    List.filter_map (function n, C c -> Some (n, c) | _ -> None) bindings
  and histograms =
    List.filter_map (function n, H h -> Some (n, h) | _ -> None) bindings
  in
  if counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (n, c) -> Buffer.add_string buf (Printf.sprintf "  %-40s %d\n" n c.c))
      counters
  end;
  if histograms <> [] then begin
    Buffer.add_string buf
      "histograms (count / p50 / p90 / p99 / max / mean):\n";
    List.iter
      (fun (n, h) ->
        let s = summary h in
        let mean =
          if s.count = 0 then 0. else float_of_int s.sum /. float_of_int s.count
        in
        Buffer.add_string buf
          (Printf.sprintf "  %-40s %8d %10.1f %10.1f %10.1f %10d %10.1f\n" n
             s.count s.p50 s.p90 s.p99 s.max mean))
      histograms
  end;
  Buffer.contents buf
