(** Software-caching baseline (Olden-style), the scheme DPA is compared
    against in the paper's tables.

    Execution is *blocking*: items run strictly one after another on each
    node, and every remote read goes through an LRU cache of remote
    objects — a bounded {!Dpa.Align_buffer}, the DPA runtime's D with a
    capacity. A hit costs a hash probe; a miss costs a probe plus a full
    request/reply round trip during which the node sits idle. There is no
    overlap, no aggregation, and no reordering.

    The runtime allocates nothing per read or per miss on a perfect
    network: deferred reads sit in a flat LIFO work list, the one
    outstanding miss lives in the context, numbered by an epoch that the
    request and its reply carry, and the request and reply are
    {!Dpa_msg.Am.send_data} messages whose handlers are built once per
    context.

    With [capacity = 0] and [hash:false] this degenerates to the naive
    blocking-remote-read runtime ([Variant.Blocking]). *)

type ctx

include Dpa.Access.S with type ctx := ctx

type stats = {
  hits : int;
  misses : int;
  local : int;
  evictions : int;
  peak_cached : int;
  retries : int;  (** end-to-end fetch re-issues under an active fault plan *)
}

val run_phase :
  engine:Dpa_sim.Engine.t ->
  heaps:Dpa_heap.Heap.cluster ->
  capacity:int ->
  ?hash:bool ->
  items:(int -> (ctx -> unit) array) ->
  unit ->
  Dpa_sim.Breakdown.t * stats
(** [capacity] is the per-node cache size in objects. [hash] (default
    [true]) charges the hash-probe cost on every remote access. Fails
    naming the node, its work list and items, and its outstanding miss
    (pointer, epoch, attempts) and counters if a node does not quiesce. *)
