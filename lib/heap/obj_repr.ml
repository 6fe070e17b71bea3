type t = { floats : float array; ptrs : Gptr.t array }

let make ~floats ~ptrs = { floats; ptrs }

let header_bytes = 8

let bytes t =
  header_bytes + (8 * Array.length t.floats) + (Gptr.bytes * Array.length t.ptrs)

let copy t = { floats = Array.copy t.floats; ptrs = Array.copy t.ptrs }
