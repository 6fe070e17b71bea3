(** The pointer-to-dependent-threads mapping [M] of the paper.

    Each outstanding fetch is identified by a token. With [reuse] on,
    at most one token is outstanding per pointer: threads created for a
    pointer that is already being fetched are merged onto the existing token
    ({!merge}: the runtime's deduplication, which makes message aggregation
    and data reuse possible). With [reuse] off every read {!issue}s a fresh
    token and triggers its own request.

    Tokens are issued in increasing order from 0 and never reused. The map
    is stored in recycled parallel arrays: once they have grown to the
    working set, a registration, a merge, a wake and a dispatch allocate
    nothing.

    A wake keeps the woken threads in the map: it pushes one
    {!Ready_ring} chain entry per token, naming the first waiter cell of
    the token's chain. The scheduler walks the chain with {!waiter} and
    {!pop_waiter}, in registration order, freeing each cell as it
    dispatches it. A freed cell keeps its continuation until the next
    registration reuses it: the map lives for one phase, so clearing it
    would buy nothing but a write barrier per dispatch. *)

type 'k t

val create : node:int -> dummy:'k -> 'k t
(** [node] is the owning node, named in {!take}'s error. [dummy] fills
    waiter cells not yet handed out. *)

val merge : 'k t -> Dpa_heap.Gptr.t -> 'k -> bool
(** Record a thread waiting on a pointer that a fetch issued with [reuse]
    on is already fetching: append it to that fetch's waiters and return
    [true]. Return [false], recording nothing, when no such fetch is in
    flight. One by-pointer lookup. *)

val issue : 'k t -> reuse:bool -> Dpa_heap.Gptr.t -> 'k -> int
(** Record a thread waiting on a pointer under a fresh token [>= 0], for
    which the caller must issue a fetch. With [reuse] on, later {!merge}s
    on the pointer land on this token until it is consumed; the caller
    checks with {!merge} first, so at most one such token is outstanding
    per pointer. With [reuse] off every read issues its own token. *)

val take : 'k t -> int -> 'k Ready_ring.t -> Dpa_heap.Gptr.t
(** Consume a token on reply arrival: push its waiter chain onto the ring
    as one chain entry and return the pointer. Raises [Failure] naming the
    node and the token when the token is not outstanding — a protocol
    error on a fault-free network. *)

val take_or_nil : 'k t -> int -> 'k Ready_ring.t -> Dpa_heap.Gptr.t
(** Like {!take}, but an unknown token pushes nothing and returns
    {!Dpa_heap.Gptr.nil} — the idempotent form the reliable message path
    uses: a token consumed by an earlier copy of a re-delivered bulk reply
    simply yields nothing to wake. *)

val waiter : 'k t -> int -> 'k
(** The continuation held by a woken waiter cell (a chain cursor). *)

val pop_waiter : 'k t -> int -> int
(** Free a woken waiter cell and return the next cell of its chain, or
    [-1] at the end. Read the cell's {!waiter} first: the cell may be
    reused by the next registration. The freed cell's continuation is
    left in place (no write barrier); a reuse overwrites it. *)

val reclaim : 'k t -> reuse:bool -> 'k Ready_ring.t -> unit
(** Crash recovery of the ready ring: the renamed copies of remote objects
    die with the crash, so every thread ready on one must wait in the map
    again. Walks each entry of the ring once, in order: an entry on a
    pointer the map's node owns goes back onto the ring unchanged; a
    remote single entry re-registers (a {!merge} when [reuse] is on and a
    fetch of its pointer is in flight, else an {!issue}; the crash cleared
    D); a remote chain entry re-registers its undispatched waiters one by
    one, in registration order — the registrations the same threads would
    make as single entries. No
    thread is lost or duplicated: threads in the ring plus {!waiters} is
    unchanged. *)

val token_ptr : 'k t -> int -> Dpa_heap.Gptr.t
(** The pointer a still-outstanding token is fetching, or
    {!Dpa_heap.Gptr.nil} once it is not outstanding. Allocates nothing.
    The runtime builds each request message from it at flush time — a
    buffered token stays outstanding until its batch is sent — and its
    timeout wheel re-issues a request from it without consuming the
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
