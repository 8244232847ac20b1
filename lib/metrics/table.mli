(** Fixed-width ASCII table rendering and CSV output for experiment results.

    All experiment harness rows flow through this module so that
    [bench/main.exe] and the examples print uniformly formatted tables. *)

type cell =
  | S of string
  | I of int
  | F of float  (** rendered with 4 significant digits *)
  | F2 of float  (** rendered with 2 decimal places *)
  | E of float  (** scientific notation, e.g. probabilities *)

type t

val create : title:string -> columns:string list -> t
(** A table with a title row and named columns. *)

val add_row : t -> cell list -> unit
(** Row length must match the number of columns. *)

val rows : t -> cell list list

val render : t -> string
(** ASCII rendering with aligned columns, title and separator rules. *)

val print : t -> unit
(** [render] to stdout, followed by a blank line. *)

val csv_escape : string -> string
(** The one CSV field escaper (RFC 4180): a field holding a comma, a
    double quote, CR or LF is wrapped in double quotes with each inner
    double quote doubled; any other field is returned unchanged. *)

val to_csv : t -> string
(** Header row, then one row per {!add_row}, cells rendered by
    {!cell_to_string} and escaped by {!csv_escape}. *)

val cell_to_string : cell -> string
