module Make (H : Hashtbl.S) = struct
  type 'a entry = {
    key : H.key;
    mutable value : 'a;
    mutable prev : 'a entry option;  (* toward most-recently used *)
    mutable next : 'a entry option;  (* toward least-recently used *)
  }

  type 'a t = {
    capacity : int;
    table : 'a entry H.t;
    mutable head : 'a entry option;  (* most-recently used *)
    mutable tail : 'a entry option;  (* least-recently used *)
    mutable evictions : int;
  }

  let create ~capacity =
    if capacity < 0 then invalid_arg "Lru.create: negative capacity";
    {
      capacity;
      table = H.create (max 16 capacity);
      head = None;
      tail = None;
      evictions = 0;
    }

  let size t = H.length t.table

  let unlink t e =
    (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
    (match e.next with Some n -> n.prev <- e.prev | None -> t.tail <- e.prev);
    e.prev <- None;
    e.next <- None

  let push_front t e =
    e.next <- t.head;
    e.prev <- None;
    (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
    t.head <- Some e

  let touch t e =
    match t.head with
    | Some h when h == e -> ()
    | _ ->
      unlink t e;
      push_front t e

  let find t k =
    match H.find_opt t.table k with
    | None -> None
    | Some e ->
      touch t e;
      Some e.value

  let mem t k = H.mem t.table k

  let evict_lru t =
    match t.tail with
    | None -> ()
    | Some e ->
      unlink t e;
      H.remove t.table e.key;
      t.evictions <- t.evictions + 1

  let add t k v =
    (* Capacity 0: the entry is admitted and immediately evicted — nothing
       is linked into the list or the table (head/tail stay [None], [size]
       stays 0), but the eviction IS counted, so [evictions] still equals
       insertions minus retained entries. (It used to be a silent no-op,
       which left eviction accounting inconsistent with every positive
       capacity.) *)
    if t.capacity = 0 then t.evictions <- t.evictions + 1
    else
      match H.find_opt t.table k with
      | Some e ->
        e.value <- v;
        touch t e
      | None ->
        if H.length t.table >= t.capacity then evict_lru t;
        let e = { key = k; value = v; prev = None; next = None } in
        H.replace t.table k e;
        push_front t e

  let evictions t = t.evictions

  let clear t =
    H.reset t.table;
    t.head <- None;
    t.tail <- None
end
