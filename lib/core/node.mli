(** Node identities and honesty tags.

    Node identifiers are unique and unforgeable (a model assumption of
    Section 2); the roster allocates them monotonically and never reuses
    one, even across leave/re-join, so a "join-leave" attack cannot recycle
    identities. *)

type id = int

(** Whether the adversary controls the node (fixed at join time). *)
type honesty = Honest | Byzantine

val is_byzantine : honesty -> bool
(** [true] on [Byzantine]. *)

(** Registry of currently present nodes. *)
module Roster : sig
  type t

  val create : unit -> t

  val fresh : t -> honesty -> id
  (** Allocate a new identity, mark it present. *)

  val honesty : t -> id -> honesty
  (** Honesty records are permanent (the adversary is static), so this
      also answers for departed nodes.  Raises [Not_found] only for never-
      allocated ids. *)

  val is_present : t -> id -> bool

  val remove : t -> id -> unit
  (** Raises [Not_found] if absent. *)

  val count : t -> int
  (** Nodes currently present. *)

  val byzantine_count : t -> int

  val byzantine_fraction : t -> float
  (** 0 when empty. *)

  val total_allocated : t -> int
  (** All identities ever issued (present or departed). *)
end
