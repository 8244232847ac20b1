(** The static Byzantine adversary of Section 2 driving churn against a
    running NOW engine.

    The adversary has full knowledge of the network (it reads the engine
    state directly), controls at most a fraction [tau] of the {e current}
    population, decides — at join time only (static corruption) — whether
    each arriving node is corrupt, and can additionally force honest nodes
    to leave (DoS) and orchestrate join-leave churn of the nodes it owns.

    A driver repeatedly applies one strategy step per time step (one join
    or one leave, as the model prescribes), while keeping safety metrics
    that the Theorem 3 experiments read off. *)

module Workload = Workload
(** Ambient churn patterns (re-exported sibling module). *)

module Behavior = Agreement.Byz_behavior
(** What a corrupted node {e does} once placed — the behaviour catalogue
    of the message-level fault-injection layer (re-exported so callers
    can write [Adversary.Behavior.Equivocate]).  This module decides
    {e where} corruption lands (churn strategies); [Behavior] decides how
    a corrupted node deviates inside the protocol primitives. *)

type strategy =
  | Random_churn of float
      (** [Random_churn p]: with probability p a join (corrupted greedily
          within the tau budget), else the departure of a uniformly random
          node — neutral background churn. *)
  | Target_cluster
      (** The attack of Section 3.3: the adversary focuses on the cluster
          where it currently owns the largest fraction; its nodes outside
          the target repeatedly leave and re-join hoping to land inside,
          and once inside they sit tight.  Against the no-shuffle baseline
          this pollutes the target; NOW's exchange defeats it. *)
  | Dos_honest
      (** Forced-leave attack: honest members of the adversary's best
          cluster are forced out (steps alternate with fresh joins so the
          population is maintained), concentrating its relative share. *)
  | Grow_shrink of int
      (** [Grow_shrink period]: joins for [period] steps, then leaves for
          [period] steps — the polynomial size oscillation of the model
          (size sweeps up and down within [sqrt N, N]). *)
  | Ambient of Workload.t
      (** churn pattern from {!Workload} (Poisson / flash crowd / diurnal);
          the adversary still greedily corrupts arrivals within its
          budget. *)

val strategy_name : strategy -> string
(** Human-readable name of an instantiated strategy (with parameters). *)

val strategy_catalogue : (string * string) list
(** [(name, one-line description)] for every strategy accepted by
    {!strategy_of_name} — the source of the CLI's [--list] output. *)

val strategy_names : string list
(** The names of {!strategy_catalogue}, in catalogue order. *)

val strategy_of_name : ?steps:int -> string -> (strategy, string) result
(** Parse ["name"] or ["name:key=value,key=value"] (case-insensitive)
    into a strategy.  Accepted parameters: [random:p=]join probability,
    [grow-shrink:period=]steps per phase, [poisson:ratio=]join
    probability, [flash-crowd:size=,at=,depart=], and
    [diurnal:period=,amp=] — e.g. ["flash-crowd:size=400,at=100"].
    Omitted parameters take defaults scaled by [steps] (default 2000)
    for the phase-based strategies.  [Error] carries a friendly message:
    unknown names list the catalogue, unknown or malformed parameters
    list the keys that strategy accepts. *)

type t

val create :
  ?seed:int64 -> tau:float -> strategy:strategy -> Now_core.Engine.t -> t
(** The driver keeps the global Byzantine fraction at most [tau] (greedy:
    corrupt every joiner while below budget).  [tau] should match the
    engine's parameter. *)

val step : t -> unit
(** One time step: one join or leave chosen by the strategy.  Respects the
    model bounds: never shrinks below [sqrt N] or grows beyond [N]. *)

val run : ?steps_per_sample:int -> t -> steps:int -> on_sample:(t -> unit) -> unit
(** [run t ~steps ~on_sample] executes [steps] steps, invoking [on_sample]
    every [steps_per_sample] (default 100) steps and once at the end. *)

val steps_done : t -> int
(** Steps executed so far. *)

val joins : t -> int
(** Join operations performed so far. *)

val leaves : t -> int
(** Leave operations performed so far. *)

val byz_fraction : t -> float
(** Current global fraction of adversary-owned nodes. *)

val min_honest_fraction_seen : t -> float
(** The worst per-cluster honest fraction observed at any sampled point
    ({!step} samples after every operation). *)

val target_byz_fraction : t -> float
(** For targeting strategies: the Byzantine fraction of the current target
    cluster (0 for non-targeting strategies). *)
