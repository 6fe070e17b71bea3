(** The pointer-to-dependent-threads mapping [M] of the paper.

    Each outstanding fetch is identified by a token. With [reuse] on,
    at most one token is outstanding per pointer: threads created for a
    pointer that is already being fetched are merged onto the existing token
    (the runtime's deduplication, which makes message aggregation and data
    reuse possible). With [reuse] off every registration gets a fresh token
    and triggers its own request.

    Tokens are issued in increasing order from 0 and never reused. The map
    is stored in recycled parallel arrays: once they have grown to the
    working set, a merge, a fresh registration (apart from the
    [`New_request] variant itself) and a wake allocate nothing. *)

type 'k t

val create : node:int -> dummy:'k -> 'k t
(** [node] is the owning node, named in {!take}'s error. [dummy] fills
    vacated waiter cells so woken continuations are not retained by the
    map. *)

val register :
  'k t -> reuse:bool -> Dpa_heap.Gptr.t -> 'k -> [ `New_request of int | `Merged ]
(** Record a thread waiting on a pointer. [`New_request token] means the
    caller must issue a fetch carrying [token]; [`Merged] means one is
    already in flight. *)

val take : 'k t -> int -> 'k Ready_ring.t -> Dpa_heap.Gptr.t
(** Consume a token on reply arrival: push its waiting threads onto the
    ring, in registration order, and return the pointer. Raises [Failure]
    naming the node and the token when the token is not outstanding — a
    protocol error on a fault-free network. *)

val take_or_nil : 'k t -> int -> 'k Ready_ring.t -> Dpa_heap.Gptr.t
(** Like {!take}, but an unknown token pushes nothing and returns
    {!Dpa_heap.Gptr.nil} — the idempotent form the reliable message path
    uses: a token consumed by an earlier copy of a re-delivered bulk reply
    simply yields nothing to wake. *)

val find_ptr : 'k t -> int -> Dpa_heap.Gptr.t option
(** The pointer a still-outstanding token is fetching, if any; used by the
    runtime's timeout wheel to re-issue a request without consuming the
    token. *)

val fold_outstanding : 'k t -> (int -> Dpa_heap.Gptr.t -> 'a -> 'a) -> 'a -> 'a
(** Fold over every outstanding (token, pointer) pair, in unspecified
    order. The crash-recovery path uses this (sorted by token) to re-issue
    every fetch the crashed node still owes an answer to: the map's
    registrations are recoverable control state — they hold no partial
    execution — so the restart re-walks them through the normal alignment
    path. *)

val outstanding : 'k t -> int
(** Tokens currently in flight. *)

val waiters : 'k t -> int
(** Threads currently suspended. *)

val is_empty : 'k t -> bool

val clear : 'k t -> unit
(** Drop every outstanding token and waiter. Tokens issued later continue
    the sequence, so a token from before the clear stays unknown. *)
