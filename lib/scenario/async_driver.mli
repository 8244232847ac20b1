(** The {!Driver.S} implementation over the asynchronous engine.

    A {!Msg_driver} whose primitive drives run on an {!Asim.Session}'s
    leaves ({!Asim.Session.leaves}) under the spec's delay model
    ([Spec.delay], default ["exp"]): churn, cluster scans, monitor
    samples and every primitive tally are the message driver's own, and
    this module adds only what is asynchronous — delay parsing, the
    audit frame carrying the delay-stream cursor, the session's monitor
    gauges and the three asynchronous {!Driver.Stats.t} fields
    ([virtual_time], [session_timeouts], [lat_p99]).

    Determinism: one root stream seeds the configuration exactly as the
    message driver would; the delay stream is split off it after
    construction, and each step's audit frame folds the delay cursor into
    the [rng] digest, so a mis-seeded delay stream is bisectable like any
    other stream drift.  Under the ["zero"] delay model a driver equals a
    {!Msg_driver} over an identical configuration (tested), except that
    it counts no rounds.

    Over {!Driver.S}: [supports] is {!Msg_driver}'s plus validation of
    the spec's [delay] name against the {!Asim.Delay} catalogue.
    [create_cell]'s root stream is [Rng.of_int (seed + 701 * (cell + 1))]
    — the asynchronous engine's own cell offset, disjoint from the state
    (101) and message (401) families.  [label] is [async:scenario-name].
    [step] is the inner driver's {!Msg_driver.advance} (its primitives
    asynchronous), then an audit frame carrying the delay-stream cursor.
    [sample] is the inner driver's configuration sample plus the
    session's [asim.clock], [asim.timeouts], per-primitive [asim.lat.*]
    and [asim.queue.*] gauges.  [stats] is the inner driver's tallies
    plus the session's virtual time, deadline hits and 99th-percentile
    makespan. *)

include Driver.S

val create : seed:int64 -> ?labels:(string * string) list -> Spec.t -> t
(** Experiment-style construction from [Rng.create seed] (the
    {!Msg_driver.create} convention); the delay stream is split off the
    root after the configuration is built. *)

val of_config :
  rng:Prng.Rng.t -> ?labels:(string * string) list -> Spec.t ->
  Cluster.Config.t -> t
(** Wrap an already-built configuration (bespoke experiment geometries),
    like {!Msg_driver.of_config}; the delay stream is [Rng.split rng]. *)
