(** FNV-1a 64-bit folding — the digest primitive of the audit layer.

    A digest is a fold of a canonical serialisation: callers feed values
    in a sorted, explicitly chosen order and the resulting 64-bit word is
    a pure function of that sequence.  Digests are compared for equality
    between two runs of the same code (bisection), never used as hash
    keys, so FNV's simplicity beats cryptographic strength here. *)

type t = int64
(** A running digest (also the final digest — there is no finalisation). *)

val init : t
(** The FNV-1a offset basis: the empty fold. *)

val byte : t -> int -> t
(** Fold one byte (the low 8 bits of the argument). *)

val int64 : t -> int64 -> t
(** Fold all eight bytes, little-endian. *)

val int : t -> int -> t
(** [int h v] is [int64 h (Int64.of_int v)], folded straight from the
    63-bit int: the call inlines and allocates nothing, so a loop that
    keeps its running digest in a local [ref] stays unboxed. *)

val string : t -> string -> t
(** Fold the bytes of the string followed by a [0xff] terminator, so
    adjacent strings fold unambiguously. *)

val to_hex : t -> string
(** Canonical 16-digit lowercase hex rendering (["%016Lx"]). *)

val of_hex : string -> t option
(** Inverse of {!to_hex}; [None] unless exactly 16 hex digits. *)
