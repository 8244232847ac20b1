(** Engine-agnostic scenario layer: one construction-and-driving path for
    the experiment harness and the [trace] / [monitor] / [byz] /
    [scenario] CLI subcommands.

    A scenario ({!Spec.t}) is a first-class, seeded description of a
    trajectory; a driver ({!Driver.S}) runs it on the state-level engine
    ({!State_driver}), with real per-node messages ({!Msg_driver}), or
    under the asynchronous discrete-event kernel with per-link latency
    ({!Async_driver}).
    The {!cells} fan-out derives every cell's randomness from the seed
    and its submission index, so all tables and exports stay
    byte-identical for any [-j] and with monitoring on or off — the
    repository's standing determinism contract. *)

module Spec = Spec
module Driver = Driver
module Stats = Driver.Stats
module State_driver = State_driver
module Msg_driver = Msg_driver
module Async_driver = Async_driver

val steady : Spec.t
(** Paired churn, walks and a periodic exchange — {!Spec.default}, the
    [trace] subcommand's scenario. *)

val primitives : Spec.t
(** Paired churn while driving every message-level primitive each step —
    the [monitor] and [byz] subcommands' scenario. *)

val catalogue : (string * string) list
(** [(name, one-line description)] for every scenario accepted by
    {!of_name} — the source of the CLI's [--list] output.  Strategy
    names from {!Adversary.strategy_catalogue} are included (each yields
    a strategy-churn scenario). *)

val of_name : ?steps:int -> string -> (Spec.t, string) result
(** Parse a catalogue name (case-insensitive) into its spec.  Strategy
    names accept the [name:key=value,...] parameters of
    {!Adversary.strategy_of_name} (e.g. ["flash-crowd:size=400,at=100"])
    and scale their defaults by [steps], which also overrides the spec's
    duration.  [Error] lists the catalogue (or the strategy's accepted
    parameters). *)

type engine = [ `State | `Msg | `Mixed | `Async ]
(** Which driver(s) a cell fan-out uses; [`Mixed] alternates by cell
    parity (even cells state-level, odd cells message-level), and
    [`Async] runs every cell on the asynchronous engine. *)

val engine_name : engine -> string
(** ["state"], ["msg"], ["mixed"] or ["async"]. *)

val engine_of_name : string -> (engine, string) result
(** Inverse of {!engine_name}, with a friendly error. *)

val run_driver :
  ?steps:int -> (module Driver.S with type t = 'd) -> Spec.t -> 'd -> Driver.Stats.t
(** Run the spec's loop on a driver: an optional time-0 sample
    ([sample_start]), then [steps] (default the spec's) steps sampling
    every [sample_every]-th, with a final sample when the duration is not
    a multiple of the period — the generalisation of [Adversary.run]'s
    sampling contract. *)

val check_supported : engine -> Spec.t -> (unit, string) result
(** [Ok] when every driver the engine uses supports the spec, else the
    first refusal ({!Driver.S.supports}). *)

val cells :
  ?jobs:int ->
  ?steps:int ->
  engine:engine ->
  seed:int ->
  cells:int ->
  Spec.t ->
  (string * Driver.Stats.t) list
(** Fan [cells] independent cells of the scenario over the [Exec] pool
    and return each cell's [(label, stats)] in submission order.  Cell
    [i] is built by its driver's {!Driver.S.create_cell}, which seeds it
    by index, and labelled [("cell", i); ("scenario", kind)], so results
    are byte-identical for any [?jobs]. *)
