(** The numbers reported in the paper's evaluation (§5), as recoverable from
    the available text. Used by EXPERIMENTS.md and by `dpa_bench` to print
    paper-vs-measured columns. [None] marks entries that are in the paper's
    tables but not legible in the text we have. *)

val bh_seq_s : float
(** Sequential Barnes-Hut, 16,384 particles, 4 steps: 97.84 s. *)

val fmm_seq_s : float
(** Sequential FMM, 32,768 particles, 29 terms, 1 step: 14.46 s. *)

val bh_dpa50_s : int -> float option
(** Barnes-Hut execution time of DPA (strip 50) on [p] processors. *)

val bh_caching_s : int -> float option
val fmm_dpa50_s : int -> float option
val fmm_caching_s : int -> float option

val bh_input : int * int
(** (particles, steps) = (16384, 4). *)

val fmm_input : int * int
(** (particles, terms) = (32768, 29). *)
