let bh_seq_s = 97.84
let fmm_seq_s = 14.46

let find tbl p = List.assoc_opt p tbl

(* From the table fragment in §5: "DPA (50) 118.02 61.23 33.05 17.15 8.59
   4.48 2.63 / Caching 115.15 65.77 38.02 20.21 10.46 5.41 2.90". *)
let bh_dpa50 =
  [ (1, 118.02); (2, 61.23); (4, 33.05); (8, 17.15); (16, 8.59); (32, 4.48); (64, 2.63) ]

let bh_caching =
  [ (1, 115.15); (2, 65.77); (4, 38.02); (8, 20.21); (16, 10.46); (32, 5.41); (64, 2.90) ]

(* The FMM row is cut off in the available text after "7.39 3.80 1.91";
   the 64-node entry is implied by the quoted 54-fold speedup over the
   14.46 s sequential time. *)
let fmm_dpa50 = [ (2, 7.39); (4, 3.80); (8, 1.91); (64, 14.46 /. 54.) ]
let fmm_caching = []

let bh_dpa50_s p = find bh_dpa50 p
let bh_caching_s p = find bh_caching p
let fmm_dpa50_s p = find fmm_dpa50 p
let fmm_caching_s p = find fmm_caching p
let bh_input = (16384, 4)
let fmm_input = (32768, 29)
