type bar = {
  label : string;
  local : float;
  comm : float;
  elapsed_s : float;
  speedup : float option;
}

let of_breakdown ~label ?speedup b =
  {
    label;
    local = Dpa_sim.Breakdown.local_frac b;
    comm = Dpa_sim.Breakdown.comm_frac b;
    elapsed_s = Dpa_sim.Breakdown.elapsed_s b;
    speedup;
  }

let render ?(width = 50) bars =
  let buf = Buffer.create 256 in
  let lw =
    List.fold_left (fun acc b -> max acc (String.length b.label)) 0 bars
  in
  (* Bars are scaled by elapsed time relative to the slowest, so bar length
     is comparable across variants, as in the paper's figures. *)
  let tmax =
    List.fold_left (fun acc b -> Float.max acc b.elapsed_s) 1e-30 bars
  in
  List.iter
    (fun b ->
      let scale = b.elapsed_s /. tmax in
      let total = int_of_float (Float.round (float_of_int width *. scale)) in
      let seg f = int_of_float (Float.round (float_of_int total *. f)) in
      let nl = seg b.local in
      let nc = seg b.comm in
      let ni = max 0 (total - nl - nc) in
      Buffer.add_string buf
        (Printf.sprintf "%-*s |%s%s%s%s %.4fs" lw b.label
           (String.make nl '#') (String.make nc '+') (String.make ni '.')
           (String.make (max 0 (width - nl - nc - ni)) ' ')
           b.elapsed_s);
      (match b.speedup with
      | Some s -> Buffer.add_string buf (Printf.sprintf "  (speedup %.1f)" s)
      | None -> ());
      Buffer.add_char buf '\n')
    bars;
  Buffer.add_string buf
    (Printf.sprintf "%-*s  # local   + communication overhead   . idle\n" lw "");
  Buffer.contents buf
