(** The one JSON codec: every JSON string nowlib writes and every JSON
    document it reads back goes through this module.

    Writer rule: the double quote and the backslash get a backslash in
    front, LF becomes [\n], every other byte below 0x20 becomes [\u00XX]
    (lowercase hex); all other bytes, including bytes 0x80 and above,
    pass through verbatim.  The exporters keep their own key order and
    number formats and use this module only for string literals.

    Reader: a small parser over {!t} that accepts any standard JSON text
    (numbers leniently: any literal [float_of_string] reads), plus
    whitespace around values.  It never raises: malformed, truncated or
    deeply nested input gives [Error]. *)

val add_string : Buffer.t -> string -> unit
(** [add_string buf s] appends [s] to [buf] as a quoted JSON string
    literal, escaped by the writer rule above. *)

val quote : string -> string
(** [quote s] is what {!add_string} appends, as a fresh string. *)

(** A parsed JSON value.  Object members keep their document order,
    duplicates included. *)
type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Num of float
  | Bool of bool
  | Null

val parse : string -> (t, string) result
(** [parse s] reads exactly one JSON value, optionally surrounded by
    whitespace, from [s].  A [\u] escape below 0x80 decodes to that byte
    and any other to ['?'], so [parse (quote s) = Ok (Str s)] for every
    byte string [s].  [Error]
    names the problem and its byte offset, e.g. [unterminated string at
    byte 17]. *)
