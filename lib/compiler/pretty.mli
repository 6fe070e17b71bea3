(** Printers for programs and partition results. *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_stmt : Format.formatter -> Ast.stmt -> unit
val pp_program : Format.formatter -> Ast.program -> unit
val pp_info : Format.formatter -> Partition.info -> unit
