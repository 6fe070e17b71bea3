open Dpa_heap

type entry = { ptr : Gptr.t; idx : int; value : float }

type slot = { mutable acc : float }

(* Per destination: combining map keyed by (ptr, idx), plus insertion order
   so flushed batches are deterministic. Each [order] element carries its
   own slot: the map holds only the most recent slot per key (enough for
   combining and for collision detection), so aliased keys can coexist in
   a held bucket without clobbering each other. *)
type bucket = {
  combine_map : (Gptr.t * int, slot) Hashtbl.t;
  mutable order : ((Gptr.t * int) * slot) list;  (* reversed *)
  mutable count : int;
}

type t = {
  buckets : bucket option array;
      (* created on a destination's first [add]: a phase builds two
         buffers per node over every destination, and most (node,
         destination) pairs never see an update *)
  combine : bool;
  max_batch : int;
  hold : int -> bool;
      (* held destinations are exempt from the eager max_batch flush and
         from [flush_if]'s strip-boundary pass: their entries keep
         combining across strips until an explicit [flush_all] /
         [flush_dst] — the whole-phase merge window of routed
         aggregation *)
  flush : dst:int -> entry list -> unit;
  mutable pending : int;
  mutable sent_entries : int;
  mutable combined : int;
  mutable messages : int;
}

let create ?(hold = fun _ -> false) ~ndest ~combine ~max_batch ~flush () =
  if ndest <= 0 then invalid_arg "Update_buffer.create: ndest must be positive";
  if max_batch <= 0 then
    invalid_arg "Update_buffer.create: max_batch must be positive";
  {
    buckets = Array.make ndest None;
    combine;
    max_batch;
    hold;
    flush;
    pending = 0;
    sent_entries = 0;
    combined = 0;
    messages = 0;
  }

let flush_dst t dst =
  match t.buckets.(dst) with
  | Some b when b.count > 0 ->
    let batch =
      List.rev_map (fun ((ptr, idx), s) -> { ptr; idx; value = s.acc }) b.order
    in
    Hashtbl.reset b.combine_map;
    b.order <- [];
    t.pending <- t.pending - b.count;
    t.sent_entries <- t.sent_entries + b.count;
    b.count <- 0;
    t.messages <- t.messages + 1;
    t.flush ~dst batch
  | Some _ | None -> ()

let add t ~dst ptr ~idx value =
  let b =
    match t.buckets.(dst) with
    | Some b -> b
    | None ->
      let b = { combine_map = Hashtbl.create 32; order = []; count = 0 } in
      t.buckets.(dst) <- Some b;
      b
  in
  let key = (ptr, idx) in
  (match if t.combine then Hashtbl.find_opt b.combine_map key else None with
  | Some s ->
    s.acc <- s.acc +. value;
    t.combined <- t.combined + 1
  | None ->
    (* Without combining, aliased keys must still land as distinct
       entries. Unheld buckets flush eagerly on collision (one batch per
       alias run, preserving per-message entry uniqueness); held (routed)
       destinations must NOT flush mid-strip — their phase-long merge
       window is the point — so there the aliased entries simply coexist,
       each with its own slot in [order]. *)
    if (not t.combine) && Hashtbl.mem b.combine_map key && not (t.hold dst)
    then flush_dst t dst;
    let s = { acc = value } in
    Hashtbl.replace b.combine_map key s;
    b.order <- (key, s) :: b.order;
    b.count <- b.count + 1;
    t.pending <- t.pending + 1);
  if b.count >= t.max_batch && not (t.hold dst) then flush_dst t dst

(* Bulk ingest for relay nodes: a routed batch merges into the bucket of
   its final destination entry by entry, so [combined]/[pending] account
   en-route merged entries exactly like locally-accumulated ones. *)
let add_entries t ~dst entries =
  List.iter (fun { ptr; idx; value } -> add t ~dst ptr ~idx value) entries

let flush_all t =
  Array.iteri (fun dst _ -> flush_dst t dst) t.buckets

let flush_if t pred =
  Array.iteri (fun dst _ -> if pred dst then flush_dst t dst) t.buckets

(* Wipe all buffered entries without flushing — a crashing node losing its
   volatile relay state. Returns how many entries were dropped so the
   caller can account for them (they must be recovered end-to-end). *)
let clear t =
  let wiped = t.pending in
  Array.iter
    (Option.iter (fun b ->
         Hashtbl.reset b.combine_map;
         b.order <- [];
         b.count <- 0))
    t.buckets;
  t.pending <- 0;
  wiped

let pending t = t.pending
let sent_entries t = t.sent_entries
let combined t = t.combined
let messages t = t.messages
