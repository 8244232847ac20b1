(** The message-level primitives, run asynchronously.

    A session wraps a {!Cluster.Config} with a {!Delay} model, a delay
    RNG stream and a patience bound.  It owns only delivery: the two leaf
    primitives (valChan and randNum) deliver every copy after its own
    per-link delay, with deadlines and first-vote tallies, while every
    decision — each corrupted member's sends and shares, the secure
    test, the stall rule and the mix — is {!Cluster.Valchan}'s and
    {!Cluster.Randnum}'s own.  randCl and exchange are the synchronous
    engine's composites run over the session's {!leaves}.

    No delivery in a leaf sub-session sends anything: every valChan copy
    and every randNum escrow leaves at time 0, and the reveals leave at
    the phase boundary.  So no event queue runs.  Each copy's arrival is
    its send time plus one delay draw, drawn in the order {!Anet} would
    draw it, and each honest valChan destination tallies its copies in
    the order a [(time, seq)] queue would deliver them: by arrival, ties
    in send order.  Results, makespans, delay draws, ledger charges and
    net-detail points equal those of the same exchanges run on {!Anet},
    which the tests keep as the oracle.  The per-sub-session tallies live
    in position-indexed arrays the session reuses, so a session must not
    be shared between domains.  Each primitive returns its usual result
    {e plus} its makespan — the virtual time the session took — and the
    session accumulates makespans into a running {!clock}.

    Timeout discipline: every sub-session has a deadline of
    [patience * Delay.mean delay] virtual time units; randNum
    additionally cuts its commit/reveal phase boundary at half the
    deadline (the cut a synchronous round barrier provides for free).
    Votes, escrows and reveals arriving late are ignored, so delay skew
    degrades {e liveness} — rejected transfers, detected stalls, failed
    walks — but never safety: a value no honest majority sent is no more
    acceptable asynchronously than synchronously (E14 asserts both
    halves, and the skew thresholds where liveness breaks).

    Equivalence contract (tested): under {!Delay.Zero} every arrival
    happens at time 0 in send order, and the sessions consume the
    configuration and behaviour RNG streams in exactly the synchronous
    order — so verdicts, outcomes, walk endpoints and exchange placements
    equal the synchronous engine's, bit for bit. *)

type t
(** A session: configuration + delay model + delay stream + clock. *)

val create : ?patience:float -> rng:Prng.Rng.t -> delay:Delay.t -> Cluster.Config.t -> t
(** Wrap a configuration.  [rng] is the delay stream (drawn only for link
    delays, never for protocol values — the configuration keeps its own
    stream); [patience] (default 8) sets each sub-session's deadline to
    [patience * Delay.mean delay].  Raises [Invalid_argument] unless
    [patience] is positive and finite. *)

val timeout : t -> float
(** The per-sub-session deadline, [patience * Delay.mean delay]. *)

val clock : t -> float
(** Total virtual time accumulated across all sub-sessions so far. *)

val timeouts : t -> int
(** Sub-sessions that hit their deadline (an undecided destination, a
    stalled draw) instead of completing early. *)

val rng_cursor : t -> int64
(** The delay stream's saved state — folded into the flight recorder's
    [rng] digest so mis-seeded delay streams are bisectable. *)

(** {2 Latency telemetry}

    Every sub-session's makespan is additionally recorded into a
    {!Metrics.Histogram.Buckets} keyed by the primitive's trace label
    (["valchan"], ["randnum"], ["walk.token"], ["exchange.announce"],
    ...), with deadline hits tallied per label and each sub-session's
    queue peaks folded into session-wide maxima.  All of it is
    a pure function of the session's deterministic event streams —
    reading it draws no randomness and mutates nothing, so the monitor
    exports it under the byte-identical-for-any-[-j] gates. *)

val latency_labels : t -> string list
(** Sorted labels with at least one recorded makespan. *)

val latency : t -> label:string -> Metrics.Histogram.Buckets.t option
(** The label's makespan histogram ([None] before its first
    sub-session).  The returned histogram is live — read, don't
    mutate. *)

val latency_all : t -> Metrics.Histogram.Buckets.t
(** A fresh merge of every label's histogram: the session-wide makespan
    distribution. *)

val latency_p99 : t -> float
(** 99th-percentile sub-session makespan across all labels ([0.] before
    any sub-session ran — the value scenario stat lines print as
    [lat_p99=]). *)

val timeouts_for : t -> label:string -> int
(** Deadline hits recorded under [label] (sums to {!timeouts}). *)

val queue_peak : t -> int
(** Largest event-queue length across all sub-sessions: the length a
    [(time, seq)] kernel ({!Anet}) running the same sub-session would
    reach, messages and timers counted.  A valChan transfer queues every
    copy before the first delivery, so its peak is the copies sent; a
    randNum draw's follows in closed form from the escrows that arrive
    before each boundary timer fires. *)

val inflight_peak : t -> int
(** Largest simultaneous undelivered-message count across all
    sub-sessions, under the same definition as {!queue_peak}. *)

val transmit :
  t -> src_cluster:int -> dst_cluster:int -> ?label:string -> payload:int ->
  unit -> Cluster.Valchan.result * float
(** Asynchronous validated channel: all copies leave at time 0, each
    honest destination majority-votes over what arrived by the deadline
    (first arrival per sender wins).  Returns the verdicts and the
    makespan: the time the last destination reached a majority, or the
    deadline if one never did.  [label] defaults to ["valchan"]. *)

val randnum :
  t -> cluster:int -> range:int -> Cluster.Randnum.outcome * float
(** Asynchronous randNum: escrow shares at time 0, reveals at the phase
    boundary (half the deadline); a contribution counts iff a strict
    majority of members received its escrow by the boundary and its
    reveal by the deadline.  Straggling shares therefore surface as a
    {e detected} stall ([stalled = true], the paper's < 2/3 quorum rule)
    rather than a silent bias.  Raises like {!Cluster.Randnum.run}. *)

val leaves : t -> Cluster.Walk.leaves
(** The session's leaves: {!randnum} and {!transmit}, no rounds per bulk
    charge, spans stamped with the truncated virtual {!clock}.  Every
    composite run over them — {!rand_cl}, {!exchange_node},
    {!exchange_all}, or a scenario driver's drives — is asynchronous. *)

val rand_cl :
  t -> ?duration:float -> ?max_restarts:int -> ?max_hop_retries:int ->
  start:int -> unit -> (Cluster.Walk.stats, Cluster.Walk.error) result * float
(** Asynchronous randCl walk: {!Cluster.Walk.rand_cl_on} over {!leaves}
    (identical configuration-stream draws, so fault-free endpoints match
    the synchronous engine); the makespan is the sum of the
    sub-sessions'. *)

val exchange_node : t -> ?duration:float -> node:int -> unit -> (int, Cluster.Walk.error) result * float
(** Asynchronously exchange one node out of its cluster:
    {!Cluster.Exchange.exchange_node_on} over {!leaves} (walk, announce,
    replacement draw, swap — minus round counting).  The makespan sums
    all three sub-session kinds, so it equals the {!clock} advance. *)

val exchange_all :
  t -> ?duration:float -> cluster:int -> unit -> (int list, Cluster.Walk.error) result * float
(** Asynchronously exchange every member of [cluster]:
    {!Cluster.Exchange.exchange_all_on} over {!leaves}; returns the sorted
    distinct clusters that swapped a node with it, plus the summed
    makespan. *)
