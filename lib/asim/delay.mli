(** The asynchronous kernel's per-link delay models.

    The short paper assumes an asynchronous network but never specifies a
    latency distribution, so this catalogue is a substitution (recorded in
    DESIGN.md): a small family of seeded models covering the regimes the
    asynchrony experiments (E14) sweep — no delay, bounded jitter, heavy
    tails, slow nodes and partitions-as-delay.

    Two design rules keep the models analysable and deterministic:
    every non-{!constructor:Zero} sample draws {e exactly one} number from
    the caller's {!Prng.Rng} stream (stream consumption never depends on
    which link is sampled), and the slow/partitioned link classification
    is a pure function of the endpoint ids (see {!constructor:Straggler}
    and {!constructor:Partition}), never of a random draw — so experiments can compute on-time quorums exactly. *)

type t =
  | Zero  (** instant delivery — the synchronous baseline *)
  | Uniform of { mean : float }
      (** uniform on [[mean/2, 3*mean/2)]: bounded jitter, crisp timeout
          arithmetic *)
  | Exponential of { mean : float }
      (** exponential per-link delay, the cpr simulator's model *)
  | Straggler of { mean : float; every : int; factor : float }
      (** every [every]-th node (id residue 0) is slow on all outgoing
          links: bounded base delay scaled by [factor] *)
  | Partition of { mean : float; groups : int; penalty : float }
      (** nodes split into [groups] id-residue groups; links crossing
          groups pay a flat [penalty] on top of the bounded base delay *)

val mean : t -> float
(** Mean of the fast-path (non-slow, non-crossing) link delay; 0 for
    {!constructor:Zero}.  Sessions derive their timeout as a patience
    multiple of this. *)

val sample : t -> Prng.Rng.t -> src:int -> dst:int -> float
(** Draw one delay for a [src] to [dst] message.  {!constructor:Zero}
    returns 0 without touching [rng]; every other model consumes exactly
    one draw. *)

val name : t -> string
(** Canonical parameterised name, e.g. ["straggler:mean=1,every=3,factor=32"];
    {!of_name} round-trips it. *)

val of_name : string -> (t, string) result
(** Parse a model from its name, with optional [k=v] parameters after a
    colon (e.g. ["exp:mean=2"], ["straggler:every=2,factor=32"]); unset
    parameters default to [mean=1], [every=3], [factor=32], [groups=2],
    [penalty=64].  [Error msg] on unknown names or bad parameters —
    including infinite or NaN numbers and fractional [every]/[groups]
    counts; [msg] lists the available set, matching the
    behaviour/strategy/scenario convention.  Never raises. *)

val catalogue : (string * string) list
(** [(name, one-line description)] for every model shape, in presentation
    order — the delay-model half of the CLI's self-description. *)
