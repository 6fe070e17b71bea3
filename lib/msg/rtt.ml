(* Jacobson–Karels round-trip estimation in deterministic integer
   arithmetic. The classic TCP filter pair: an EWMA of the round trip
   (gain 1/8) and an EWMA of its absolute deviation (gain 1/4), combined
   as [srtt + 4 * rttvar] for the retransmission timeout. Everything is
   plain integer nanoseconds so replays are bit-exact. *)

type t = {
  mutable srtt_ns : int;
  mutable rttvar_ns : int;
  mutable samples : int;
  mutable min_ns : int;  (* smallest round trip ever measured *)
  mutable max_ns : int;
}

let create () =
  { srtt_ns = 0; rttvar_ns = 0; samples = 0; min_ns = max_int; max_ns = 0 }

let reset t =
  t.srtt_ns <- 0;
  t.rttvar_ns <- 0;
  t.samples <- 0;
  t.min_ns <- max_int;
  t.max_ns <- 0

let samples t = t.samples

let srtt_ns t = t.srtt_ns

let rttvar_ns t = t.rttvar_ns

let min_ns t = t.min_ns

let observe t r =
  (* Clamp at 1 ns: a zero sample would let srtt decay to 0 and arm
     degenerate timeouts. *)
  let r = Int.max r 1 in
  if r < t.min_ns then t.min_ns <- r;
  if r > t.max_ns then t.max_ns <- r;
  if t.samples = 0 then begin
    (* RFC 6298 initialization: first sample seeds both filters. *)
    t.srtt_ns <- r;
    t.rttvar_ns <- r / 2
  end
  else begin
    let err = r - t.srtt_ns in
    t.rttvar_ns <- t.rttvar_ns - (t.rttvar_ns / 4) + (abs err / 4);
    t.srtt_ns <- t.srtt_ns + (err / 8)
  end;
  t.samples <- t.samples + 1

let estimate_ns t = t.srtt_ns + (4 * Int.max 1 t.rttvar_ns)

let rto_ns t ~fallback =
  if t.samples = 0 then fallback else Int.max t.min_ns (estimate_ns t)
