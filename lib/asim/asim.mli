(** nowlib's asynchronous discrete-event engine.

    A third way to run the message-level primitives: instead of the
    synchronous round barrier of {!Simkernel.Net}, every message gets a
    per-link delay drawn from a seeded {!Delay} model and arrives in
    [(time, seq)] order.  {!Session} runs valChan, randNum, randCl and
    exchange this way with timeout semantics: latency skew can cost
    liveness (missed verdicts, detected stalls, failed walks) but never
    safety, and under zero delay every primitive reproduces the
    synchronous engine's outcomes bit-for-bit (cross-validated by test
    and by experiment E14).  Its leaf sub-sessions compute each copy's
    arrival directly; the {!Event_queue}-driven kernel {!Anet} is the
    reference they are tested against.

    Everything is seeded: delays come from one {!Prng.Rng} stream per
    session, time ties break in send order, and the simulation is
    strictly sequential — outputs are byte-identical for any [-j] and
    across reruns (CI-gated).  See DESIGN.md, "Asynchronous kernel". *)

module Event_queue = Event_queue
(** The [(time, seq)]-ordered event queue. *)

module Delay = Delay
(** The per-link delay-model catalogue. *)

module Anet = Anet
(** The reference asynchronous message kernel. *)

module Session = Session
(** The primitives, run under latency. *)
