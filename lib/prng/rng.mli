(** Deterministic, splittable pseudo-random number generator.

    The whole reproduction is driven by this generator so that every
    simulation run is reproducible from a single integer seed.  The core is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a 64-bit state advanced by
    a Weyl sequence and finalised by a variant of the MurmurHash3 mixer.  It
    is fast, has provably full period 2^64, and supports {!split}, which
    derives an independent generator — used to give every node, cluster and
    experiment repetition its own stream. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator.  Distinct seeds give
    independent-looking streams. *)

val of_int : int -> t
(** [of_int seed] is [create (Int64.of_int seed)]. *)

val copy : t -> t
(** [copy t] duplicates the state; both copies then evolve independently but
    produce the same stream from the duplication point. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val save : t -> int64
(** The full internal state (SplitMix64 is a single 64-bit word). *)

val restore : int64 -> t
(** Resume a generator exactly where {!save} captured it. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound-1].  [bound] must be positive.
    Uses rejection to avoid modulo bias. *)

val float : t -> float -> float
(** [float t bound] is uniform on [0, bound). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t rate] samples Exp(rate); used for CTRW holding times. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of failures before the first success of a
    Bernoulli(p) sequence (support {0, 1, ...}). *)

val poisson : t -> float -> int
(** [poisson t lambda] samples Poisson(lambda) exactly (Knuth's product
    method with splitting for large lambda). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val shuffle : t -> 'a array -> 'a array
(** Non-destructive shuffle. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct t m bound] draws [m] distinct integers uniformly from
    [0, bound-1] (Floyd's algorithm).  Raises [Invalid_argument] if
    [m > bound]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list (O(n)). *)
