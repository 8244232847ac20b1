(** Dynamic integer arrays with O(1) swap-removal.

    Cluster membership lists need O(1) uniform sampling, O(1) append and
    O(1) removal by position (order is irrelevant — clusters are sets), so
    a growable array with swap-remove fits exactly. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty vector ([capacity] pre-sizes the backing array). *)

val of_list : int list -> t
(** Vector holding the list's elements in order. *)

val length : t -> int
(** Elements currently held. *)

val get : t -> int -> int
(** [get t i] is element [i]; bounds-checked. *)

val set : t -> int -> int -> unit
(** [set t i v] overwrites element [i]; bounds-checked. *)

val push : t -> int -> unit
(** Append at the end, growing the backing array as needed.  O(1)
    amortised. *)

val swap_remove : t -> int -> int
(** [swap_remove t i] removes position [i] by moving the last element into
    it and returns the removed value.  O(1). *)

val iter : (int -> unit) -> t -> unit
(** Apply to every element in position order. *)

val iteri : (int -> int -> unit) -> t -> unit
(** {!iter} with the position passed first. *)

val to_list : t -> int list
(** Elements in position order. *)

val mem : t -> int -> bool
(** Linear scan. *)

val clear : t -> unit
