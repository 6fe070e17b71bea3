(** The thread-partitioning analysis of the paper's §4.

    Walking each function body in order, a dereference of a global-class
    pointer whose object has not yet been fetched ends the current thread:
    a new non-blocking thread starts, labeled with that pointer, and all
    other in-scope pointers of the same alias class are hoisted into the
    same alignment point (fetched together). Dereferences of already
    available pointers, and everything that only depends on local data,
    stay in the current thread (the transitive expansion that keeps threads
    non-blocking). [If] branches are analyzed independently; availability
    after the [If] is the intersection of the branches'. *)

type spawn_site = {
  label : string;  (** the pointer variable the thread waits on *)
  hoisted : string list;  (** same-class pointers fetched together *)
}

type info = {
  fname : string;
  static_threads : int;  (** 1 (entry) + number of spawn sites *)
  spawn_sites : spawn_site list;  (** in program order *)
}

val analyze : Ast.program -> Ast.func -> info
val analyze_program : Ast.program -> info list
