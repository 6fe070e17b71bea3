(** Minimal JSON values: enough to serialize traces and metrics and to
    validate emitted artifacts in tests without external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering. Strings are escaped per RFC 8259; non-finite floats
    render as [null]. *)

val to_buffer : Buffer.t -> t -> unit

(** {2 Scalar writers}

    The leaves of {!to_buffer}, for writers that stream a fixed shape
    without building a tree ({!Export.jsonl_writer}). None of them
    allocates. *)

val int_to : Buffer.t -> int -> unit
(** Decimal digits, as [string_of_int] renders them, copied into the
    buffer in one blit. *)

val escape_to : Buffer.t -> string -> unit
(** A quoted, RFC 8259-escaped string. A string with nothing to escape is
    copied as-is; bytes [>= 0x80] are always copied as-is. *)

val escape_char_to : Buffer.t -> char -> unit
(** One byte of {!escape_to}'s output, without the quotes: for strings
    stored in another form (packed sink payloads). *)

val parse : string -> (t, string) result
(** Strict recursive-descent parser for the values {!to_string} produces
    (and general RFC 8259 input). Errors carry a byte offset. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks a field up; [None] on other constructors. *)
