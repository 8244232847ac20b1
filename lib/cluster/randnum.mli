(** randNum — in-cluster distributed random number generation.

    The nodes of a cluster agree on a common integer chosen uniformly at
    random from [0, range).  The paper defers the construction to the long
    version and states it is secure while Byzantine members are fewer than
    two thirds of the cluster, at a cost of O(log^2 N) messages per draw.

    This implementation models a commit/VSS-then-reconstruct collective
    coin (see DESIGN.md): in round 1 each member escrows a contribution
    among all members (a Byzantine member commits {e before} seeing any
    honest contribution, and verifiable secret sharing prevents it from
    later withholding or changing it); in round 2 the contributions are
    reconstructed and every honest member outputs the same mix of all
    escrowed contributions.  Uniformity holds as soon as one contributor
    is honest; agreement holds while the reconstruction quorum does, i.e.
    Byzantine members < 2/3.

    Cost charged: [2 c (|C|-1)] messages, where [c] is the number of
    members that escrow (a withholding member sends nothing), and 2
    rounds — matching the paper's O(log^2 N).  Nothing reads those
    messages, so no kernel runs them: the draw charges ["randnum"] and
    ["round"] once each and emits the kernel's net-detail points
    ({!Simkernel.Net.trace_send}). *)

type outcome = {
  value : int;  (** the agreed value in [0, range) *)
  secure : bool;
      (** [false] when Byzantine members are >= 2/3 of the cluster: the
          value is then adversary-controlled (0 here) rather than random *)
  stalled : bool;
      (** [true] when fewer than 2/3 of the members escrowed a share: the
          VSS reconstruction quorum is not met, so honest members detect
          the stall (a [randnum.stall] trace point is emitted).  Only
          withholding behaviours ({!Agreement.Byz_behavior.Silent}) can
          cause this, and only when they exceed 1/3 of the cluster. *)
  participants : int;
      (** How many members actually escrowed a contribution (honest
          members always do; Byzantine members may withhold). *)
}

val run : Config.t -> cluster:int -> range:int -> outcome
(** Raises [Not_found] on an unknown cluster and [Invalid_argument] on an
    empty cluster or non-positive range. *)

(** {2 Shared by both message engines}

    The asynchronous engine ([Asim.Session]) delivers escrows and reveals
    on its own event queue but decides with these same pieces, so its
    zero-delay draws equal {!run}'s bit for bit. *)

val secure : Config.t -> int list -> bool
(** Whether Byzantine members are fewer than two thirds of [members] —
    the draw's [secure] flag. *)

val contribution : Config.t -> int -> int option
(** The share member [id] escrows ([None] = withheld): a draw from the
    configuration stream for an honest member, otherwise its behaviour's
    {!Agreement.Byz_behavior.share}, with a [byz.randnum.withhold] or
    [byz.randnum.bias] trace point when the share deviates.  Engines
    call it once per member, in member order. *)

val conclude : secure:bool -> n:int -> range:int -> (int * int) list -> outcome
(** The draw's outcome from the [(member, contribution)] pairs that made
    it into the reconstruction (any order) out of [n] members: stalled
    (with a [randnum.stall] trace point) when fewer than two thirds
    participated, value [0] when not [secure], otherwise the {!mix} of
    the contributions sorted by member id. *)

val mix : int list -> range:int -> int
(** The deterministic combination of contributions used by [run]
    (exposed for tests): 64-bit mixing fold, reduced to [0, range). *)
