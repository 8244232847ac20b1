(** Synchronous message-passing network simulator.

    Implements the system model of Section 2: a synchronous network with
    private authenticated channels.  Time advances in communication
    rounds; a message sent during round [r] is delivered at the beginning
    of round [r+1] together with its true sender identity (identities
    cannot be forged — the kernel stamps them).

    Nodes are callbacks, registered once and never removed: on every
    round each node receives the batch of messages addressed to it.
    Byzantine behaviour is expressed by registering a misbehaving
    callback; the kernel gives Byzantine nodes no extra power beyond
    sending arbitrary messages to arbitrary known nodes under their own
    identity.  Departures are the message engine's business
    ([Cluster.Config]), not the kernel's.

    Three protocols run on the kernel: Phase-King agreement
    ([Agreement.Phase_king]), network discovery ([Cluster.Discovery],
    E6) and the per-sender valChan reference
    ([Cluster.Valchan.transmit_reference], a test oracle).  Every send and
    round is charged to a {!Metrics.Ledger.t}.  When a {!Trace} collector
    with [net_detail] is active, every send and round boundary
    additionally emits a trace point ([net.send.<label>] /
    [net.round]); sessions that charge their sends without a kernel
    (randNum, the batched valChan) emit the same points through
    {!trace_send} and {!trace_round}.

    Delivery is decided at send time: a message is queued only if its
    destination is registered when it is sent.  A send to an unknown
    destination is counted, charged and traced like any other, but never
    queued — registering the destination later does not deliver it. *)

type 'msg t
(** A network instance carrying ['msg]-typed messages. *)

type 'msg handler = round:int -> inbox:(int * 'msg) list -> unit
(** Called once per round for each live node.  [inbox] holds
    [(sender, message)] pairs from the previous round, sorted by sender id
    (then send order) for determinism. *)

val create : ?ledger:Metrics.Ledger.t -> unit -> 'msg t
(** A fresh network at round 0, charging [ledger] (a private one if
    omitted). *)

val add_node : 'msg t -> id:int -> 'msg handler -> unit
(** Register a node.  Raises [Invalid_argument] if the id is in use. *)

val send : 'msg t -> src:int -> dst:int -> ?label:string -> ?deviant:bool -> 'msg -> unit
(** Send a message for delivery next round: queued if [dst] is
    registered now, otherwise counted and lost.  The ledger is charged
    one message under [label] (default ["msg"]).  Raises
    [Invalid_argument] if [src] is not registered.

    [deviant] (default [false]) marks the send as a Byzantine-injected
    deviation: when a {!Trace} collector with [net_detail] is active, it
    additionally emits a [net.byz.<label>] point — the kernel-level face
    of the fault-injection layer.  The kernel gives deviant sends no extra power: same charging,
    same delivery, same stamped sender identity. *)

val multicast :
  'msg t -> src:int -> dsts:int list -> ?label:string -> 'msg -> unit
(** One {!send} per destination in [dsts] order.  The ledger is charged
    once for the whole batch (same totals as per-destination charging;
    the ledger holds only accumulated counts, so batching is observably
    identical). *)

val round : 'msg t -> int
(** The number of rounds run so far (0 before the first). *)

val run_rounds : 'msg t -> int -> unit
(** [run_rounds t n] runs [n] rounds.  A round delivers all queued
    messages and executes every node's handler once, in increasing id
    order; sends the handlers perform are delivered next round.  Each
    round is charged to the ledger (label ["round"]). *)

val run_until : 'msg t -> ?max_rounds:int -> (unit -> bool) -> int
(** [run_until t pred] runs rounds (as {!run_rounds}) until [pred ()]
    holds (checked between rounds) or [max_rounds] (default 10_000) elapse; returns the number of
    rounds executed.  Raises [Failure] on timeout. *)

val messages_sent : 'msg t -> int
(** Total messages ever sent through this network. *)

(** {2 Net-detail points}

    The kernel emits its [net_detail] points through these two
    functions, and so do sessions that charge their sends to a ledger
    without running a kernel: the points' names, attributes and times
    are written once, here.  Both are no-ops unless a {!Trace} collector
    with [net_detail] is active. *)

val trace_round : int -> unit
(** [trace_round r] emits the [net.round] point of the boundary into
    round [r] (attribute [round], time [r]), as a round does before
    running any handler. *)

val trace_send : round:int -> src:int -> dst:int -> label:string -> deviant:bool -> unit
(** The points of one send during [round] (attributes [dst] and [src],
    time [round]): [net.byz.<label>] when [deviant], then
    [net.send.<label>] — exactly what {!send} emits. *)
