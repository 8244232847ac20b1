(** Validated inter-cluster channels (Section 3.2).

    A node accepts a message claimed to come from cluster [C] if and only
    if it receives the identical payload from more than half of [C]'s
    members.  Combined with the invariant that every cluster is >2/3
    honest, this rule makes inter-cluster communication Byzantine-proof:
    the honest majority determines the accepted value and Byzantine
    members can neither forge nor block it.

    [transmit] runs the exchange as a 2-round session: each member of the
    source cluster sends the payload to each member of the destination
    cluster — Byzantine members send whatever their behaviour dictates —
    and each destination node applies the majority rule. *)

val validate : members:int list -> inbox:(int * int) list -> int option
(** Pure majority rule: the payload sent by strictly more than half of
    [members] (counting at most one message per member), if any. *)

val corrupted_sends :
  Agreement.Byz_behavior.t ->
  src:int ->
  dsts:int list ->
  label:string ->
  payload:int ->
  (dst:int -> deviant:bool -> int -> unit) ->
  unit
(** A corrupted source member [src]'s side of one transfer, for either
    message engine: per destination in [dsts] order,
    {!Agreement.Byz_behavior.on_channel} (a fresh
    {!Agreement.Byz_behavior.rng_of} stream per call, destinations split
    at their median id) picks the action, and [send ~dst ~deviant v]
    emits each copy actually sent — a forged value, or the honest
    payload to a redirect sink, with [deviant] set.  Every deviation
    emits a [byz.<deviation>] trace point. *)

type result = {
  verdicts : (int * int option) list;
      (** per honest destination member: the accepted payload, if any *)
  unanimous : int option;
      (** [Some v] when every honest destination member accepted [v] *)
}

val summarise : (int * int option) list -> result
(** Assemble a {!result} from per-member verdicts ([unanimous] is the
    shared verdict when every member accepted the same [Some] value).
    Exposed for the asynchronous engine's sessions. *)

val transmit :
  Config.t -> src_cluster:int -> dst_cluster:int -> ?label:string -> payload:int -> unit -> result
(** Raises [Not_found] on unknown cluster ids.  [label] defaults to
    ["valchan"].

    Quorum checks are batched: one pass per destination built from the
    shared honest vote count plus each Byzantine source's first vote to
    it, instead of a full {!validate} scan per sender.  No kernel runs:
    the session charges [label] once with every copy sent (|dst| per
    honest source, plus each copy a corrupted source sends) and
    ["round"] with 2 rounds, and emits the kernel's net-detail points
    ({!Simkernel.Net.trace_send}), so charging, trace points and
    Byzantine RNG draws are byte-identical to {!transmit_reference}. *)

val transmit_reference :
  Config.t -> src_cluster:int -> dst_cluster:int -> ?label:string -> payload:int -> unit -> result
(** The naive per-sender session ({!validate} over every destination's
    full inbox, delivered by a fresh net's per-message path) — the oracle
    the batched {!transmit} is equivalence-tested against.  Same charging
    and same RNG trajectory as {!transmit}; only the internal evaluation
    strategy differs. *)
