type t =
  | Dpa of Dpa.Config.t
  | Caching of { capacity : int }
  | Blocking
  | Prefetch of { strip_size : int }

let dpa ?strip_size ?agg_max () = Dpa (Dpa.Config.dpa ?strip_size ?agg_max ())

let name = function
  | Dpa c -> c.Dpa.Config.name
  | Caching { capacity } -> Printf.sprintf "Caching(%d)" capacity
  | Blocking -> "Blocking"
  | Prefetch { strip_size } -> Printf.sprintf "Prefetch(%d)" strip_size

type stats = Dpa_stats of Dpa.Dpa_stats.t | Cache_stats of Caching.stats

let dpa_stats = function Dpa_stats s -> Some s | Cache_stats _ -> None
let cache_stats = function Cache_stats s -> Some s | Dpa_stats _ -> None

type items = {
  items :
    'c. (module Dpa.Access.S with type ctx = 'c) -> int -> ('c -> unit) array;
}

let run_phase t ~label ~engine ~heaps { items } =
  let runtime ~label config =
    let b, s =
      Dpa.Runtime.run_phase_labeled ~label ~engine ~heaps ~config
        ~items:(items (module Dpa.Runtime))
    in
    (b, Dpa_stats s)
  in
  let caching ~capacity ~hash =
    let b, s =
      Caching.run_phase ~engine ~heaps ~capacity ~hash
        ~items:(items (module Caching))
        ()
    in
    (b, Cache_stats s)
  in
  match t with
  | Dpa config -> runtime ~label config
  | Prefetch { strip_size } ->
    runtime ~label:(label ^ "-prefetch")
      (Dpa.Config.pipeline_only ~strip_size ())
  | Caching { capacity } -> caching ~capacity ~hash:true
  | Blocking -> caching ~capacity:0 ~hash:false
