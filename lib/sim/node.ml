type segment_kind = Local | Comm | Idle

type t = {
  id : int;
  mutable tracer : (segment_kind -> start:int -> dur:int -> unit) option;
  mutable clock : int;
  mutable link_free_at : int;
  mutable out_link_free_at : int;
  mutable local_ns : int;
  mutable comm_ns : int;
  mutable idle_ns : int;
  mutable msgs_sent : int;
  mutable bytes_sent : int;
  mutable msgs_recv : int;
  mutable bytes_recv : int;
  mutable incarnation : int;
}

let create ~id =
  {
    id;
    tracer = None;
    clock = 0;
    link_free_at = 0;
    out_link_free_at = 0;
    local_ns = 0;
    comm_ns = 0;
    idle_ns = 0;
    msgs_sent = 0;
    bytes_sent = 0;
    msgs_recv = 0;
    bytes_recv = 0;
    incarnation = 0;
  }

let[@inline] emit t kind ~start ~dur =
  match t.tracer with
  | Some f when dur > 0 -> f kind ~start ~dur
  | Some _ | None -> ()

let[@inline] charge_local t ns =
  assert (ns >= 0);
  emit t Local ~start:t.clock ~dur:ns;
  t.clock <- t.clock + ns;
  t.local_ns <- t.local_ns + ns

let[@inline] charge_comm t ns =
  assert (ns >= 0);
  emit t Comm ~start:t.clock ~dur:ns;
  t.clock <- t.clock + ns;
  t.comm_ns <- t.comm_ns + ns

let wait_until t time =
  if time > t.clock then begin
    emit t Idle ~start:t.clock ~dur:(time - t.clock);
    t.idle_ns <- t.idle_ns + (time - t.clock);
    t.clock <- time
  end

let set_tracer t f = t.tracer <- f

let reset_breakdown t =
  t.local_ns <- 0;
  t.comm_ns <- 0;
  t.idle_ns <- 0;
  t.msgs_sent <- 0;
  t.bytes_sent <- 0;
  t.msgs_recv <- 0;
  t.bytes_recv <- 0
