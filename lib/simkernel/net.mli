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
    ([net.send.<label>] / [net.round]).

    Delivery is decided at send time: a message is queued only if its
    destination is registered {e with an inbox} when it is sent.  A send
    to an inbox-less or unknown destination is counted, charged and
    traced like any other, but never queued — registering or re-adding
    the destination later does not deliver it.  While no registered node
    has an inbox and no [net_detail] collector is active, {!multicast} is
    a pure count (one sender check, one pass over the destinations, one
    ledger charge); the kernel picks that path from its own state.
    Sessions whose receivers never read an inbox therefore cost no
    per-message allocation. *)

type 'msg t
(** A network instance carrying ['msg]-typed messages. *)

type 'msg handler = round:int -> inbox:(int * 'msg) list -> unit
(** Called once per round for each live node.  [inbox] holds
    [(sender, message)] pairs from the previous round, sorted by sender id
    (then send order) for determinism. *)

val create : ?ledger:Metrics.Ledger.t -> unit -> 'msg t
(** A fresh network at round 0.  If [ledger] is omitted a private one is
    created (accessible via {!ledger}). *)

val reset : 'msg t -> unit
(** Return the network to its state at {!create} — no nodes, nothing
    queued, round 0, {!messages_sent} and {!deviant_sent} at 0 — keeping
    the same ledger with its totals.  A caller running many short
    sessions reuses one network this way instead of creating one per
    session. *)

val ledger : 'msg t -> Metrics.Ledger.t
(** The ledger every send and round of this network is charged to. *)

val add_node : ?needs_inbox:bool -> 'msg t -> id:int -> 'msg handler -> unit
(** Register a node.  Raises [Invalid_argument] if the id is in use.

    [needs_inbox] (default [true]): pass [false] for nodes whose handler
    never reads [inbox] (pure senders, analytically-evaluated receivers).
    Messages to them are still counted, charged and traced identically,
    but never queued (the send-time rule above), and their handler always
    gets an empty inbox.  A net with no inbox node registered counts its
    multicasts without touching any destination. *)

val replace_handler : 'msg t -> id:int -> 'msg handler -> unit
(** Swap a node's behaviour (e.g. between protocol phases). *)

val remove_node : 'msg t -> int -> unit
(** The node leaves/crashes: it stops receiving and executing.  Queued
    messages to it are dropped unless the id is registered again, with an
    inbox, before they are delivered.  No-op if absent. *)

val is_alive : 'msg t -> int -> bool
(** The failure-detection mechanism the paper assumes: any node may test
    whether a (known) node has left or crashed. *)

val nodes : 'msg t -> int list
(** Live node ids, sorted. *)

val send : 'msg t -> src:int -> dst:int -> ?label:string -> ?deviant:bool -> 'msg -> unit
(** Send a message for delivery next round: queued if [dst] is
    registered with an inbox now, otherwise counted and lost.  The ledger
    is charged one message under [label] (default ["msg"]).  Raises
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
    observably identical).  While no registered node has an inbox and no
    [net_detail] collector is active, the batch is only counted: one
    sender check (when at least one destination remains), one pass over
    [dsts] and one ledger charge, with the same counters and charges as
    the per-destination path. *)

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
