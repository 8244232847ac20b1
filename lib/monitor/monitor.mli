(** Deterministic invariant monitoring: time-series sampling of the
    paper's safety bounds.

    The monitor layers on {!Trace} (events) and {!Metrics} (costs) and
    answers the question neither does: {e did every paper invariant hold
    at every point of the trajectory?}  A {!Store.t} collects gauge /
    counter / histogram series plus explicit violation events; the
    {!Probe} registry fills it from both engines; {!Export} and
    {!Dashboard} serialise it byte-deterministically (JSONL, CSV, a
    self-contained HTML dashboard).

    Like the trace collector, at most one monitor is globally installed
    at a time; the [maybe_*] helpers below are the hook points compiled
    into the harness — they are no-ops (one atomic read) when no monitor
    is installed and never touch any random stream, so enabling
    monitoring cannot change a single table byte (tested). *)

module Store = Store
(** Sample/violation storage with a canonical serialisation order;
    see {!Store}. *)

module Blame = Blame
(** Causal-window attribution for violations from the trace ring;
    see {!Blame}. *)

module Probe = Probe
(** The probe registry sampling both engines; see {!Probe}. *)

module Export = Export
(** Sorted JSONL and CSV exporters; see {!Export}. *)

module Dashboard = Dashboard
(** The self-contained static HTML dashboard; see {!Dashboard}. *)

type t = Store.t
(** A monitor is its store. *)

val create : ?cadence:int -> unit -> t
(** {!Store.create}. *)

val install : t -> unit
(** Make [t] the globally installed monitor the [maybe_*] hooks feed.
    Raises [Invalid_argument] if one is already installed. *)

val uninstall : unit -> t
(** Remove and return the installed monitor.  Raises [Invalid_argument]
    if none is installed. *)

val sampling : unit -> bool
(** Whether a monitor is installed (one atomic read). *)

val with_monitor : t -> (unit -> 'a) -> 'a
(** [with_monitor m f] installs [m], runs [f] and uninstalls again,
    also on exception. *)

val maybe_sample_engine :
  ?labels:(string * string) list -> time:int -> Now_core.Engine.t -> unit
(** {!Probe.sample_engine} into the installed monitor when one is
    installed {e and} [time] falls on its cadence; no-op otherwise. *)

val maybe_sample_config :
  ?labels:(string * string) list -> ?degree_bound:int -> time:int ->
  Cluster.Config.t -> unit
(** {!Probe.sample_config}, with the same installed + cadence gating. *)

val maybe_count :
  series:string -> ?labels:(string * string) list -> time:int -> int -> unit
(** Record a counter sample into the installed monitor (no cadence gate —
    counters are cheap and callers sample them at natural boundaries);
    no-op when none is installed. *)

val maybe_gauge :
  series:string -> ?labels:(string * string) list -> time:int -> float -> unit
(** Record a gauge sample into the installed monitor; no-op when none is
    installed. *)
