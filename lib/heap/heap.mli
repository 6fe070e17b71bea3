(** The distributed global heap: one struct-of-arrays object store per
    node.

    Objects live in flat pools — a [Bigarray] float pool (outside the
    OCaml heap, invisible to the GC) and a packed-integer pointer pool —
    and are named by {!Gptr.t} handles. No per-object record exists;
    field access is index arithmetic through the in-place accessors, and
    {!Obj_repr.t} is materialized only by the copy-out edges {!get} and
    {!deref} (reference code, tests, serialization).

    Local dereference is direct; remote dereference must go through a
    runtime (DPA or a baseline) which models the communication. [deref]
    is the omniscient accessor used by sequential reference code and by
    request handlers at the owner. *)

type t
(** A single node's store. *)

type cluster = t array

type view = Gptr.t
(** A runtime-delivered object view. The simulated wire carries
    accounting bytes, not payload, so a delivered view has always aliased
    the owner's live object — the handle itself is the view. Resolve its
    fields with {!view_float} and friends. *)

val cluster : nnodes:int -> cluster

val alloc : t -> floats:float array -> ptrs:Gptr.t array -> Gptr.t
(** Allocate on this node. The arrays are {e copied} into the node's
    pools; the caller keeps ownership and later mutation of them does not
    affect the heap. (The boxed heap used to adopt the caller's arrays —
    see the copy-semantics tests.) *)

val alloc_raw : t -> nfloats:int -> nptrs:int -> Gptr.t
(** Allocate a zero-filled object ([0.] floats, {!Gptr.nil} pointers)
    without staging caller arrays — the allocation-free path for bulk
    builders, which then fill fields with {!set_float}/{!set_ptr}. *)

val size : t -> int
(** Number of objects allocated on this node. *)

(** {2 In-place field access (hot paths; no allocation)} *)

val nfloats : t -> Gptr.t -> int
val nptrs : t -> Gptr.t -> int
val get_float : t -> Gptr.t -> int -> float
val set_float : t -> Gptr.t -> int -> float -> unit
val get_ptr : t -> Gptr.t -> int -> Gptr.t
val set_ptr : t -> Gptr.t -> int -> Gptr.t -> unit

val bump_float : t -> Gptr.t -> idx:int -> float -> unit
(** [bump_float t p ~idx v] adds [v] to float field [idx] of a local
    object — the owner-side application of a remote accumulation. Hits
    the float pool in place. *)

val obj_bytes : t -> Gptr.t -> int
(** Serialized size of the object (header + fields), without
    materializing a copy — drives simulated message sizes. *)

(** {2 Raw pool access (innermost loops)}

    A non-inlined float-returning call boxes its result, which an
    interaction kernel pays per field read. [float_base] validates the
    handle once and returns the object's offset into [float_pool]; the
    loop then reads fields as [Bigarray.Array1.get (float_pool h) (base +
    i)] — an unboxed load. The caller owns staying inside the object's
    [nfloats] (the pool bound still traps, but past-the-object indices
    read a neighbour). *)

type fpool = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val float_pool : t -> fpool
val float_base : t -> Gptr.t -> int

val float_index : t -> Gptr.t -> idx:int -> int
(** The index into [float_pool] of float field [idx] of a local object,
    validated as {!bump_float} validates it. A loop that adds a float it
    reads from an array through this index passes no float across a call,
    so nothing boxes it where {!bump_float} is not inlined. *)

(** {2 Cluster-level view accessors (any owner; no allocation)} *)

val view_nfloats : cluster -> view -> int
val view_nptrs : cluster -> view -> int
val view_float : cluster -> view -> int -> float
val view_ptr : cluster -> view -> int -> Gptr.t
val view_bytes : cluster -> view -> int

(** {2 Copy-out edges} *)

val get : t -> Gptr.t -> Obj_repr.t
(** Local dereference, materialized as a fresh copy-out {!Obj_repr.t}.
    Raises [Invalid_argument] if the pointer is not owned by this node,
    is nil, or dangles. Mutating the copy does not touch the heap. *)

val deref : cluster -> Gptr.t -> Obj_repr.t
(** Dereference anywhere (no communication modelled — for reference code
    and tests). Copy-out, like {!get}. *)

(** {2 Accounting} *)

val total_objects : cluster -> int
val total_bytes : cluster -> int
