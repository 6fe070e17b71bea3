(* A column is a directory of fixed-size chunks: [dir.(k)] holds positions
   [(first_chunk + k) * chunk_size ...]. Pushing past the last chunk takes
   one from the pool (or allocates it) and appends its pointer; releasing
   drops leading chunks into the pool and shifts the directory, so only
   chunk pointers are ever copied. Chunks hold ints only, so a pooled chunk
   keeps nothing reachable and is reused as it is. *)

let bits = 12
let chunk_size = 1 lsl bits
let mask = chunk_size - 1

type t = {
  mutable dir : int array array;
  mutable first_chunk : int;  (* absolute chunk number of [dir.(0)] *)
  mutable live : int;  (* chunks in [dir] *)
  mutable len : int;
  mutable pool : int array list;
}

let create () = { dir = [||]; first_chunk = 0; live = 0; len = 0; pool = [] }
let length c = c.len
let first c = c.first_chunk lsl bits

(* Called when [c.len] is the first position of a chunk not yet stored. *)
let add_chunk c =
  if c.live = Array.length c.dir then begin
    let dir = Array.make (max 4 (2 * c.live)) [||] in
    Array.blit c.dir 0 dir 0 c.live;
    c.dir <- dir
  end;
  let chunk =
    match c.pool with
    | ch :: rest ->
      c.pool <- rest;
      ch
    | [] -> Array.make chunk_size 0
  in
  c.dir.(c.live) <- chunk;
  c.live <- c.live + 1

let out_of_range c i =
  invalid_arg
    (Printf.sprintf "Chunked.get: position %d outside the live range [%d, %d)"
       i (first c) c.len)

(* Small enough to inline at every reader, with the failure out of line. *)
let[@inline] get c i =
  if i < first c || i >= c.len then out_of_range c i
  else
    Array.unsafe_get
      (Array.unsafe_get c.dir ((i lsr bits) - c.first_chunk))
      (i land mask)

let push c v =
  let i = c.len in
  if i land mask = 0 then add_chunk c;
  c.len <- i + 1;
  Array.unsafe_set
    (Array.unsafe_get c.dir ((i lsr bits) - c.first_chunk))
    (i land mask) v

let drop c n =
  for k = 0 to n - 1 do
    c.pool <- c.dir.(k) :: c.pool
  done;
  Array.blit c.dir n c.dir 0 (c.live - n);
  Array.fill c.dir (c.live - n) n [||];
  c.live <- c.live - n;
  c.first_chunk <- c.first_chunk + n

let release c upto =
  let n = (Int.min upto c.len lsr bits) - c.first_chunk in
  if n > 0 then drop c n

let clear c =
  drop c c.live;
  c.first_chunk <- 0;
  c.len <- 0
