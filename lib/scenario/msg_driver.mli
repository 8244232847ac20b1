(** The {!Driver.S} implementation over the message-level engine — churn
    with real per-node messages.

    This is the driver the state-level [Adversary] never had a twin for:
    joins run Algorithm 1 through [Cluster.Ops.join] (randCl placement,
    insert, full exchange, split when oversized), departures run
    Algorithm 2 through [Cluster.Ops.leave] (notify, exchange, cascade,
    merge when undersized), and every escrowed share, walk token and view
    update is an authenticated per-node message.  The primitive
    drives (walk, randNum, valChan, exchange) run on the driver's
    {!Cluster.Walk.leaves}, so the same driver runs them asynchronously
    over an [Asim.Session]'s leaves ([Async_driver]).  When the spec
    names a behaviour, each arrival is corrupted by a seeded Bernoulli
    draw of rate [tau], capped so the corrupted fraction never exceeds
    the [tau] budget (the stationary-adversary model).

    Churn operations the protocol refuses under heavy corruption are
    counted as [churn_failures], never raised — so violation-path
    scenarios ([tau > 1/3]) stay drivable. *)

type t

val kind : string
(** ["msg"]. *)

val supports : Spec.t -> (unit, string) result
(** [Error] (with a CLI-friendly message) when the spec's churn needs
    state-level corruption placement ([Target_cluster], [Dos_honest]);
    constructors raise [Invalid_argument] with the same message. *)

val create : seed:int64 -> ?labels:(string * string) list -> Spec.t -> t
(** Experiment-style construction: one root stream [Rng.create seed]
    feeds the uniform builder and every subsequent draw (the historical
    E5/E12 convention).  [labels] tag every monitor sample and counter.
    Raises [Invalid_argument] on unsupported churn or an unknown
    behaviour name. *)

val create_cell :
  seed:int -> cell:int -> ?labels:(string * string) list -> Spec.t -> t
(** CLI-cell-style construction, replicating the historical now_sim
    cells: the root stream is [Rng.of_int (seed + 401 * (cell + 1))]. *)

val of_rng : rng:Prng.Rng.t -> ?labels:(string * string) list -> Spec.t -> t
(** Construction from an existing stream (the [par_map_trials] index
    split of the harness): builds the spec's uniform geometry from [rng]
    and keeps drawing from it. *)

val build : rng:Prng.Rng.t -> Spec.t -> Cluster.Config.t
(** The spec's uniform geometry, drawn from [rng], with corrupted members
    running the spec's behaviour — the configuration {!of_rng} wraps. *)

val of_config :
  ?leaves:Cluster.Walk.leaves ->
  rng:Prng.Rng.t ->
  ?labels:(string * string) list ->
  Spec.t ->
  Cluster.Config.t ->
  t
(** Wrap an already-built configuration (bespoke geometries like E13's
    two-cluster channel pairs); [rng] supplies the driver's own draws
    (payloads, churn picks) and is typically the stream [cfg] was built
    from.  [leaves] (default [Cluster.Walk.sync cfg]) are what the walk,
    randNum, valChan and exchange drives run on — an [Asim.Session]'s
    leaves make them asynchronous; churn stays synchronous either way. *)

val config : t -> Cluster.Config.t
(** The driven configuration (for direct primitive measurements). *)

val rng : t -> Prng.Rng.t
(** The driver's root stream. *)

val ledger : t -> Metrics.Ledger.t
(** The configuration's cost ledger (for per-op deltas, as in E5). *)

val join : t -> unit
(** One arrival: fresh node id (from 1,000,000 up), corrupted by a
    budget-capped Bernoulli([tau]) draw when the spec names a behaviour,
    [Ops.join] at a uniformly drawn contact
    cluster, then [Ops.split] if the host exceeds [1.5 * cluster_size]
    (fresh cluster ids from 1,000 up, [max 3 (2 log2 #C)] overlay
    edges). *)

val leave : t -> unit
(** One departure: a uniformly drawn member of a uniformly drawn cluster
    runs [Ops.leave], then [Ops.merge] if its cluster fell below
    [max 2 (2/3 * cluster_size)] (a merge refused for lack of a partner
    is not a failure). *)

val scan : t -> unit
(** The post-step cluster scan (sizes, honest majorities, honest-fraction
    floor) — read-only. *)

val walk_once : t -> time:int -> unit
(** One [randCl] walk from the live cluster [time mod #C], honouring the
    spec's [walk_duration]; tallies completions, hop retries, failures
    and misblames, and emits [walk.retry] / [walk.failed] monitor
    counts. *)

val randnum_once : t -> time:int -> unit
(** One [randNum] draw on the live cluster [time mod #C] over the spec's
    [randnum_range]; tallies the value histogram, stalls (with a
    [randnum.stall] count) and insecure draws. *)

val valchan_once : t -> time:int -> unit
(** One validated transfer of a fresh payload in [1, 1000] along the
    spec's [valchan_route] (default: live clusters [time mod #C] to
    [(time + 1) mod #C]); classifies the outcome as accepted, forged
    (emitting a [valchan.forged] count) or rejected. *)

val exchange : t -> bool
(** [exchange_all] on the first live cluster; [false] when the exchange
    failed (tallied only on success). *)

val randnum_hist : t -> int array
(** Copy of the per-value histogram of every [randnum_once] draw
    (length [randnum_range]) — E13's uniformity evidence. *)

val labels : t -> (string * string) list
(** See {!Driver.S.labels}. *)

val label : t -> string
(** See {!Driver.S.label}. *)

val step : t -> time:int -> unit
(** See {!Driver.S.step}: one churn action per the spec (for
    [Random_churn p] a band of ±10 nodes around the creation population
    is restored before the coin is flipped; [Ambient] workloads plan
    against that population as [n0]), then the enabled primitives in
    walk / randNum / valChan order, a periodic exchange, and a full
    cluster scan (sizes, honest majorities, honest-fraction floor). *)

val advance : t -> time:int -> unit
(** {!step} without its audit frame, for a driver that records its own
    (the asynchronous driver adds its delay-stream cursor). *)

val sample : t -> time:int -> unit
(** See {!Driver.S.sample}: [Monitor.maybe_sample_config] under the
    creation labels with degree bound [2 * overlay_degree]. *)

val stats : t -> Driver.Stats.t
(** See {!Driver.S.stats}. *)
