(** Synchronous message-passing network simulator.

    Implements the system model of Section 2: a synchronous reconfigurable
    network with private authenticated channels.  Time advances in
    communication rounds; a message sent during round [r] is delivered at
    the beginning of round [r+1] together with its true sender identity
    (identities cannot be forged — the kernel stamps them).  A time step of
    the paper consists of several such rounds.

    Nodes are callbacks: on every round each live node receives the batch
    of messages addressed to it.  Byzantine behaviour is expressed by
    registering a misbehaving callback; the kernel gives Byzantine nodes no
    extra power beyond sending arbitrary messages to arbitrary known nodes
    under their own identity.

    The kernel counts every message into a {!Metrics.Ledger.t}, which is
    how the message-level cost experiments (E5, E6) measure communication
    complexity.  When a {!Trace} collector with [net_detail] is active,
    every send and round boundary additionally emits a trace point
    ([net.send.<label>] / [net.round]); sessions that charge their sends
    without a kernel emit the same points through {!trace_send} and
    {!trace_round}.

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
(** A fresh network at round 0.  If [ledger] is omitted a private one is
    created (accessible via {!ledger}). *)

val ledger : 'msg t -> Metrics.Ledger.t
(** The ledger every send and round of this network is charged to. *)

val add_node : 'msg t -> id:int -> 'msg handler -> unit
(** Register a node.  Raises [Invalid_argument] if the id is in use. *)

val replace_handler : 'msg t -> id:int -> 'msg handler -> unit
(** Swap a node's behaviour (e.g. between protocol phases). *)

val remove_node : 'msg t -> int -> unit
(** The node leaves/crashes: it stops receiving and executing.  Queued
    messages to it are dropped unless the id is registered again before
    they are delivered.  No-op if absent. *)

val is_alive : 'msg t -> int -> bool
(** The failure-detection mechanism the paper assumes: any node may test
    whether a (known) node has left or crashed. *)

val nodes : 'msg t -> int list
(** Live node ids, sorted. *)

val send : 'msg t -> src:int -> dst:int -> ?label:string -> ?deviant:bool -> 'msg -> unit
(** Send a message for delivery next round: queued if [dst] is
    registered now, otherwise counted and lost.  The ledger is charged
    one message under [label] (default ["msg"]).  Raises
    [Invalid_argument] if [src] is not alive (departed nodes cannot
    speak).

    [deviant] (default [false]) marks the send as a Byzantine-injected
    deviation: it is additionally counted in {!deviant_sent} and, when a
    {!Trace} collector with [net_detail] is active, emits a
    [net.byz.<label>] point — the kernel-level face of the fault-injection
    layer.  The kernel gives deviant sends no extra power: same charging,
    same delivery, same stamped sender identity. *)

val multicast :
  'msg t -> src:int -> dsts:int list -> ?except:int -> ?label:string -> 'msg -> unit
(** One {!send} per destination in [dsts] order, skipping [except] (a
    member multicasting to the rest of its cluster).  The ledger is
    charged once for the whole batch (same totals as per-destination
    charging; the ledger holds only accumulated counts, so batching is
    observably identical). *)

val round : 'msg t -> int
(** The current round number (0 before the first {!run_round}). *)

val run_round : 'msg t -> unit
(** Deliver all queued messages and execute every live node's handler once.
    Handlers run in increasing id order; sends they perform are delivered
    next round.  Charges one round to the ledger (label ["round"]). *)

val run_rounds : 'msg t -> int -> unit

val run_until : 'msg t -> ?max_rounds:int -> (unit -> bool) -> int
(** [run_until t pred] runs rounds until [pred ()] holds (checked between
    rounds) or [max_rounds] (default 10_000) elapse; returns the number of
    rounds executed.  Raises [Failure] on timeout. *)

val messages_sent : 'msg t -> int
(** Total messages ever sent through this network. *)

val deviant_sent : 'msg t -> int
(** How many of {!messages_sent} were marked [deviant] — injected
    Byzantine deviations (see {!send}). *)

(** {2 Net-detail points}

    The kernel emits its [net_detail] points through these two
    functions, and so do sessions that charge their sends to a ledger
    without running a kernel: the points' names, attributes and times
    are written once, here.  Both are no-ops unless a {!Trace} collector
    with [net_detail] is active. *)

val trace_round : int -> unit
(** [trace_round r] emits the [net.round] point of the boundary into
    round [r] (attribute [round], time [r]), as {!run_round} does before
    running any handler. *)

val trace_send : round:int -> src:int -> dst:int -> label:string -> deviant:bool -> unit
(** The points of one send during [round] (attributes [dst] and [src],
    time [round]): [net.byz.<label>] when [deviant], then
    [net.send.<label>] — exactly what {!send} emits. *)
