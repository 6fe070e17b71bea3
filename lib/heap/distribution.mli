(** Helpers for distributing work items and objects across nodes. *)

val block_owner : nitems:int -> nnodes:int -> int -> int
(** [block_owner ~nitems ~nnodes i] is the owner of item [i] under a
    contiguous block distribution (the first [nitems mod nnodes] blocks hold
    one extra item). *)

val block_range : nitems:int -> nnodes:int -> int -> int * int
(** [block_range ~nitems ~nnodes node] is the [(first, count)] of the items
    owned by [node]. The ranges partition [0 .. nitems-1]. *)

val weighted_ranges : weights:int array -> nnodes:int -> (int * int) array
(** [weighted_ranges ~weights ~nnodes] cuts the item sequence into [nnodes]
    contiguous [(first, count)] ranges of roughly equal total weight. Each
    cut targets an equal share of the weight {e remaining} for the nodes
    still to be served, taking the crossing item only when that lands
    nearer the target, so one dominant weight skews only its own range
    (the old prefix-target rule starved every node after it). The ranges
    partition the items; no range is empty while unassigned items remain
    (empty ranges appear only when there are fewer items than nodes, at
    the tail); a node's weight never exceeds the even share by more than
    the largest single weight. Weights must be non-negative; all-zero
    weights degrade to an even count split. *)

val owner_of_ranges : (int * int) array -> int array
(** Expand ranges into an item -> owner map. *)
