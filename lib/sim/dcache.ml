type t = {
  assoc : int;
  nsets : int;
  (* sets.(s) is the set's contents, most-recently used first. -1 = empty. *)
  sets : int array array;
  mutable hits : int;
  mutable misses : int;
}

let create ?(assoc = 4) ~lines () =
  if assoc <= 0 then invalid_arg "Dcache.create: assoc must be positive";
  if lines <= 0 then invalid_arg "Dcache.create: lines must be positive";
  let nsets = max 1 ((lines + assoc - 1) / assoc) in
  {
    assoc;
    nsets;
    sets = Array.init nsets (fun _ -> Array.make assoc (-1));
    hits = 0;
    misses = 0;
  }

let set_of t key = (key * 0x9E3779B1 land max_int) mod t.nsets

let access t key =
  if key < 0 then invalid_arg "Dcache.access: negative key";
  let set = t.sets.(set_of t key) in
  let rec find i = if i >= t.assoc then -1 else if set.(i) = key then i else find (i + 1) in
  let pos = find 0 in
  if pos >= 0 then begin
    (* Move to front (LRU within the set). *)
    for j = pos downto 1 do
      set.(j) <- set.(j - 1)
    done;
    set.(0) <- key;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    for j = t.assoc - 1 downto 1 do
      set.(j) <- set.(j - 1)
    done;
    set.(0) <- key;
    t.misses <- t.misses + 1;
    false
  end

let hits t = t.hits
let misses t = t.misses

let miss_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0. else float_of_int t.misses /. float_of_int total
