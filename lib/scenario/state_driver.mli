(** The {!Driver.S} implementation over the state-level engine
    ([Now_core.Engine]), generalising [Adversary.run].

    [Static]/[Paired] churn is driven directly; [Strategy] churn delegates
    each step to an {!Adversary} driver created alongside the engine, so
    existing strategy trajectories (E3's attack sweeps) replay
    bit-for-bit.  The {!Spec.drive} primitive flags are message-level
    toggles and are ignored here — the state engine charges its
    primitives through the churn operations themselves.

    Over {!Driver.S}: [supports] accepts every spec.  [create_cell]
    replicates the historical now_sim cells: the cell seed is
    [seed + 101 * (cell + 1)], the population rng is
    [Rng.of_int (cell_seed + 1)], the engine seeds from [cell_seed] and a
    [Strategy] adversary from [cell_seed + 7] (the [churn] subcommand's
    offset).  [step] is one churn step per the spec ([Static] none,
    [Paired] a {!join} then a {!leave}, [Strategy] one adversary step),
    then the running honest-fraction floor is updated.  [sample] is
    [Monitor.maybe_sample_engine] under the creation labels.  [stats]
    under [Strategy] churn reports the adversary's join/leave tallies,
    honest floor and target fraction. *)

include Driver.S

val initial_population :
  Prng.Rng.t -> n:int -> tau:float -> Now_core.Node.honesty list
(** A [tau]-fraction-Byzantine shuffled population of [n] nodes — the
    construction every experiment seeds its engine with (re-exported by
    [Harness.Common]). *)

val create : seed:int64 -> ?labels:(string * string) list -> Spec.t -> t
(** Experiment-style construction, replicating [Harness.Common]'s
    [default_engine]: the population rng is [Rng.create (seed + 11)], the
    engine and the adversary (for [Strategy] churn) both seed from [seed]
    directly.  [labels] tag every monitor sample. *)

val engine : t -> Now_core.Engine.t
(** The driven engine, for direct inspection (invariant checks,
    per-operation measurements). *)

val ledger : t -> Metrics.Ledger.t
(** The engine's cost ledger (for per-op label deltas, as in E5). *)

val join : t -> Now_core.Engine.op_report
(** One honest join (the [Paired]-churn arrival), tallied; returns the
    engine's cost report so callers can measure per-op costs. *)

val leave : t -> Now_core.Engine.op_report
(** Departure of a uniformly random node, tallied; returns the cost
    report. *)
