let check ~nitems ~nnodes =
  if nitems < 0 then invalid_arg "Distribution: negative nitems";
  if nnodes <= 0 then invalid_arg "Distribution: nnodes must be positive"

let block_range ~nitems ~nnodes node =
  check ~nitems ~nnodes;
  if node < 0 || node >= nnodes then invalid_arg "Distribution: bad node";
  let base = nitems / nnodes and extra = nitems mod nnodes in
  let first = (node * base) + min node extra in
  let count = base + if node < extra then 1 else 0 in
  (first, count)

let block_owner ~nitems ~nnodes i =
  check ~nitems ~nnodes;
  if i < 0 || i >= nitems then invalid_arg "Distribution: bad item";
  let base = nitems / nnodes and extra = nitems mod nnodes in
  (* Items [0, extra*(base+1)) live in the enlarged blocks. *)
  let cut = extra * (base + 1) in
  if i < cut then i / (base + 1) else extra + ((i - cut) / base)

let weighted_ranges ~weights ~nnodes =
  if nnodes <= 0 then invalid_arg "Distribution: nnodes must be positive";
  let n = Array.length weights in
  Array.iter
    (fun w -> if w < 0 then invalid_arg "Distribution: negative weight")
    weights;
  (* Each weight is lifted to [w * nnodes + 1]: every item carries positive
     weight, so all-zero (or zero-run) inputs degrade to an even count split
     instead of collapsing onto one node, and ties break toward equal
     counts.

     Cuts are re-derived per node against the remaining suffix — the
     target is [remaining_weight / remaining_nodes], not a prefix multiple
     of [total / nnodes]. The old prefix rule went degenerate after one
     dominant weight: every later prefix target was already exceeded, so
     each middle node took exactly one forced item and the leftovers piled
     onto the last node. A suffix target redistributes whatever any node
     over- or under-takes across the nodes still to come.

     The crossing item is taken only when that lands the cut nearer the
     target (nearest-cut in cross-multiplied integer form, no division),
     so a node overshoots its share by at most half the crossing weight. *)
  let lifted i = (weights.(i) * nnodes) + 1 in
  let total' = ref 0 in
  for i = 0 to n - 1 do
    total' := !total' + lifted i
  done;
  let ranges = Array.make nnodes (n, 0) in
  let cum = ref 0 and item = ref 0 in
  for node = 0 to nnodes - 1 do
    let k = nnodes - node in
    let t_rem = !total' - !cum in
    let first = !item in
    let s = ref 0 in
    let stop = ref false in
    while (not !stop) && !item < n do
      let w = lifted !item in
      (* Always take the first item (no empty range while items remain);
         beyond that, keep at least one item per remaining node and stop
         at the nearest-to-target cut. *)
      if !item = first || (!item <= n - k && k * ((2 * !s) + w) <= 2 * t_rem)
      then begin
        s := !s + w;
        incr item
      end
      else stop := true
    done;
    cum := !cum + !s;
    if first < n then ranges.(node) <- (first, !item - first)
  done;
  ranges

let owner_of_ranges ranges =
  let n =
    Array.fold_left (fun acc (_, count) -> acc + count) 0 ranges
  in
  let owner = Array.make n 0 in
  Array.iteri
    (fun node (first, count) ->
      for i = first to first + count - 1 do
        owner.(i) <- node
      done)
    ranges;
  owner
