(** The asynchronous kernel's ordered event queue.

    A binary min-heap keyed by [(time, seq)]: events pop in non-decreasing
    scheduled time, and events scheduled for the {e same} time pop in the
    order they were pushed (the [seq] counter is the insertion index since
    creation or the last {!clear}).  That FIFO tie-break is what makes the
    discrete-event simulation a pure function of the pushes — two runs
    that push the same (time, payload) sequence pop the identical
    sequence, regardless of heap-internal layout — and is qcheck-tested
    against a reference sort.

    The heap is a struct of arrays (unboxed times, seqs, payloads): once
    its arrays have grown, {!push} and {!pop} allocate nothing, and
    {!clear} empties it for reuse without giving the storage back.

    The queue is not thread-safe: the kernel is strictly sequential
    (parallelism lives one level up, across scenario cells with
    index-derived RNG streams). *)

type 'a t
(** A mutable queue of ['a] events. *)

val create : dummy:'a -> 'a t
(** A fresh empty queue; the insertion counter starts at 0.  [dummy]
    fills the payload slots no event occupies — it is never popped. *)

val push : 'a t -> time:float -> 'a -> unit
(** Schedule an event at absolute time [time].  Raises [Invalid_argument]
    on NaN (which has no place in a total order); past times are accepted
    — the kernel clamps delivery to its own clock. *)

val next_time : 'a t -> float
(** The scheduled time of the next {!pop}.  Raises [Invalid_argument] on
    an empty queue. *)

val pop : 'a t -> 'a
(** Remove the earliest event — smallest [(time, seq)] pair — and return
    its payload (read its time with {!next_time} first).  Raises
    [Invalid_argument] on an empty queue. *)

val clear : 'a t -> unit
(** Drop every queued event and reset the insertion counter, keeping the
    grown storage: a cleared queue pops exactly what a fresh one would. *)

val length : 'a t -> int
(** Events currently queued. *)

val is_empty : 'a t -> bool
(** [length t = 0]. *)

val pushed : 'a t -> int
(** Events pushed since creation or the last {!clear} — the next event's
    [seq]; exposed so tests and digests can pin the insertion index. *)
