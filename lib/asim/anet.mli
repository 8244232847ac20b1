(** The asynchronous message kernel: point-to-point messages with seeded
    per-link delays, delivered by a discrete-event loop.

    Mirrors the synchronous {!Simkernel.Net} surface — nodes with
    handlers, [send]/[multicast] with per-label ledger charging and
    [--net-detail] trace points — but replaces the round barrier with an
    {!Event_queue}: each send draws one delay from the kernel's
    {!Prng.Rng} stream and schedules delivery at [now + delay]; {!run}
    pops events in [(time, seq)] order, so simultaneous deliveries arrive
    in send order.  A session sends ints (valChan payloads, randNum's
    int-coded phases) over the one kernel it reuses ({!reset}).

    Determinism: the kernel is strictly sequential and every delay comes
    from the one [rng] handed to {!create} (never [Stdlib.Random] or
    wall-clock), so a run is a pure function of (seed, sends) — the
    asynchronous half of the repo's byte-identical-for-any-[-j] contract.

    Unlike the synchronous kernel there is no ["round"] ledger label:
    virtual time replaces round counting (sessions report makespans
    instead), while per-message charges stay identical. *)

type 'msg t
(** A kernel instance carrying ['msg]-typed messages. *)

val create :
  ?ledger:Metrics.Ledger.t -> rng:Prng.Rng.t -> delay:Delay.t -> unit -> 'msg t
(** A fresh kernel at virtual time 0.  [rng] is the delay stream ({e all}
    link-delay randomness comes from it); [delay] the per-link model;
    [ledger] defaults to a private one. *)

val reset : 'msg t -> unit
(** Return the kernel to its state at {!create} — no nodes, no queued
    events, clock and counters at 0 — keeping the same ledger, delay
    model and delay stream (which is {e not} rewound) and the grown queue
    storage.  A session reuses one kernel across its sub-sessions this
    way instead of growing a fresh one each time. *)

val add_node : 'msg t -> id:int -> (src:int -> 'msg -> unit) -> unit
(** Register a node; its handler runs once per delivered message, at the
    message's delivery time (read it with {!now}).  Raises
    [Invalid_argument] on duplicate ids. *)

val is_alive : 'msg t -> int -> bool
(** Whether the id is currently registered. *)

val now : 'msg t -> float
(** Current virtual time (the last processed event's time, clamped
    non-decreasing). *)

val send :
  'msg t -> src:int -> dst:int -> ?label:string -> ?deviant:bool -> 'msg -> unit
(** Send one message: draws a delay for the [(src, dst)] link, schedules
    delivery and charges one [label]-tagged message to the ledger
    ([deviant] additionally emits a [net.byz.*] point under
    [--net-detail]).  Raises [Invalid_argument] if [src] is not alive; an
    unknown [dst] loses the message at delivery time, exactly like the
    synchronous kernel. *)

val multicast :
  'msg t -> src:int -> dsts:int list -> ?except:int -> ?label:string -> 'msg -> unit
(** [send] to each destination in order (one delay draw per link),
    skipping [except] (a member multicasting to the rest of its cluster),
    with the ledger charged once for the whole batch. *)

val at : 'msg t -> time:float -> (unit -> unit) -> unit
(** Schedule a timer callback at absolute virtual time [time] (it reads
    the clock with {!now}) — the hook sessions use for phase boundaries
    and timeout checks.  Ordered against deliveries by the same
    [(time, seq)] rule. *)

val run : ?until:float -> 'msg t -> unit
(** Process queued events in [(time, seq)] order.  With [until], only
    events scheduled at or before it run and the clock then advances to
    exactly [until] (later events stay queued — a session that resets
    the kernel drops its stragglers); without it, runs to quiescence. *)

val queue_peak : 'msg t -> int
(** Largest event-queue length ever reached (messages + timers) — a pure
    function of the event stream, so safe for deterministic telemetry
    exports. *)

val inflight_peak : 'msg t -> int
(** Largest number of simultaneously undelivered messages (sent but not
    yet popped, whether or not the destination is registered).
    Deterministic, like {!queue_peak}. *)
