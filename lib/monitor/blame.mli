(** Causal-window blame attribution for violation records.

    Answers "what just happened to the violating cluster?" from the trace
    layer's per-task flight-recorder ring ({!Trace.recent}): the [byz.*]
    deviations, stall symptoms ([walk.retry], [randnum.stall]) and
    churn/protocol operations ([join]/[leave]/[split]/[merge]/[exchange]/
    [valchan]/[randnum] spans) whose attributes touch the given cluster,
    rendered newest-last as short text entries.  Reading the ring is
    deterministic for any [-j] (buffers are task-local) and
    zero-perturbation (read-only, no RNG).  A violation with no causal
    event in the window — e.g. corruption present from construction —
    gets one standing-condition entry, so a blame block is never
    empty. *)

val deviation_point : string -> bool
(** Whether a trace point counts as a deviation: a [byz.<deviation>]
    point (a non-empty name after the prefix) or a stall symptom
    ([walk.retry], [randnum.stall]).  The one definition {!of_events},
    [Probe.ingest_trace] and [now_sim byz] filter with. *)

val default_max_entries : int
(** Entries kept per blame window (the most recent ones). *)

val of_events :
  ?cluster:int -> ?max_entries:int -> Trace.event list -> string list
(** Filter and render an explicit event window (oldest first, as
    {!Trace.recent} returns it).  [cluster] keeps only events whose
    attributes carry that cluster id (keys [cluster]/[home]/[src]/[dst]/
    [to]/[start]/[vertex]); omitted means keep every causal event.
    Raises [Invalid_argument] if [max_entries < 1]. *)

val attribute : ?cluster:int -> ?max_entries:int -> unit -> string list
(** [of_events] over {!Trace.recent} — the blame window for a violation
    being recorded right now by the calling task. *)
