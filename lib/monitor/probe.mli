(** The probe registry: what the monitor samples, from which engine.

    Each probe reads one side of the system — {!sample_engine} the
    state-level {!Now_core.Engine}, {!sample_config} the message-level
    {!Cluster.Config}, {!ingest_trace} the deviation/retry points a
    {!Trace} collector recorded — and writes gauge/counter/histogram
    samples plus explicit violation events into a {!Store.t}.  Probes only
    {e read} engine state and never draw from any random stream, so
    sampling cannot perturb a trajectory (the zero-perturbation tests pin
    this down: tables are byte-identical with monitoring on and off). *)

val describe : string -> string option
(** Description of a series from the registry of every series the
    probes can emit (the dashboard's card subtitles); [None] for unknown
    names
    (e.g. dynamically named [byz.*] deviation counters). *)

val sample_view :
  Store.t -> ?labels:(string * string) list -> ?spectral_iterations:int ->
  time:int -> Now_core.View.t -> unit
(** {!sample_engine} over the engine's read-only {!Now_core.View} — the
    representation-blind path shared by {!Now_core.Engine} (flat arena)
    and [Now_core.Engine_reference] (the oracle). *)

val sample_engine :
  Store.t -> ?labels:(string * string) list -> ?spectral_iterations:int ->
  time:int -> Now_core.Engine.t -> unit
(** Sample the state-level engine at sim time [time]: per-cluster honest
    fraction (min + bound + per-cluster breaches of Theorem 3's > 2/3),
    cluster-size band occupancy against [Params.min_cluster_size] /
    [max_cluster_size], overlay degree/connectivity/expansion via
    {!Over.Overlay_health} (degree checked against twice the target
    degree), lifetime operation counters and ledger message/round
    totals.  [labels] tag every emitted point (an ["engine" = "state"]
    label is added); [spectral_iterations] caps the expansion power
    iteration (default 200). *)

val sample_config :
  Store.t -> ?labels:(string * string) list -> ?spectral_iterations:int ->
  ?degree_bound:int -> time:int -> Cluster.Config.t -> unit
(** Sample the message-level configuration at sim time [time]: the same
    honest-fraction and cluster-size families (no size-band bounds — a
    [Config] carries no [Params]), overlay health on the explicit
    inter-cluster graph (checked against [degree_bound] when given), and
    ledger totals.  An ["engine" = "msg"] label is added. *)

val ingest_trace :
  Store.t -> ?labels:(string * string) list -> ?bucket:int -> Trace.dump ->
  unit
(** Turn a trace dump's deviation and retry points ([byz.*],
    [walk.retry], [randnum.stall]) into counter series: points are
    grouped by name and by [bucket]-wide windows of their layer clock
    (default width 1), one sample per (name, window) holding the window's
    count.  Runs after {!Trace.stop}, so message-level runs keep the
    repo's single-collector discipline. *)
