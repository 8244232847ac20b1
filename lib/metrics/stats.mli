(** Streaming univariate statistics: count, running mean, extremes and
    total.

    Used by every experiment to summarise measured quantities (message
    counts, Byzantine fractions, walk lengths, ...) without storing all
    samples. *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** Feed one observation. *)

val add_int : t -> int -> unit

val count : t -> int
(** Number of observations. *)

val mean : t -> float
(** Mean of the observations; [nan] if empty. *)

val min : t -> float
(** Smallest observation; [infinity] if empty. *)

val max : t -> float
(** Largest observation; [neg_infinity] if empty. *)

val total : t -> float
(** Sum of the observations. *)

val merge : t -> t -> t
(** [merge a b] is an accumulator equivalent to having seen both streams. *)
