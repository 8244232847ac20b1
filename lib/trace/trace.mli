(** Deterministic structured tracing and per-primitive profiling.

    Every protocol primitive (Join/Leave/Split/Merge, [exchange], [randCl]
    hops, [randNum], validated-channel transfers, OVER edge updates) can
    open a {e span} carrying its simulation time, cluster/node attributes
    and the message/round ledger delta accumulated while the span was
    open; sub-span happenings (a CTRW hop landing, an overlay edge
    appearing, a kernel message) are {e points}.  The resulting event
    stream is a deterministic function of the run's seed:

    - recording is buffered per {e task}, not per wall-clock order:
      {!Exec.par_map} hands every submission index its own buffer (via
      {!task_buf}/{!run_in_buf}) and concatenates them in submission order
      ({!merge}), so the merged stream is byte-identical for any [-j] and
      equal to the sequential run's stream;
    - nothing in an event depends on scheduling, hashing order or time —
      the test suite diffs serialized traces across reruns and worker
      counts.

    Tracing is off unless a collector is installed with {!start}; every
    instrumentation site is guarded by {!active} (one atomic read), so a
    run without a collector pays nothing but that check. *)

(** Which of the three instrumented layers emitted an event: the
    synchronous kernel ([Net]), the message-level cluster protocols
    ([Msg]) or the state-level engine ([State]). *)
type layer = Net | Msg | State

val layer_name : layer -> string
(** ["net"], ["msg"], ["state"]. *)

type event =
  | Open of { name : string; layer : layer; time : int; attrs : (string * int) list }
      (** A span begins.  [time] is the layer's logical clock (engine time
          step, ledger round count, kernel round). *)
  | Close of { messages : int; rounds : int; alloc : int }
      (** The innermost open span ends; [messages]/[rounds] are the ledger
          delta across the span (0 when no ledger was supplied), [alloc]
          the caller-domain [Gc.allocated_bytes] delta (0 unless the
          collector was started with [~profile_alloc:true]). *)
  | Point of { name : string; layer : layer; time : int; attrs : (string * int) list }
      (** An instantaneous happening inside the current span. *)

(* ------------------------------------------------------------------ *)
(* Collector lifecycle                                                  *)
(* ------------------------------------------------------------------ *)

val start : ?capacity:int -> ?net_detail:bool -> ?profile_alloc:bool -> unit -> unit
(** Install the collector in the calling domain (the root buffer).
    [capacity] bounds the number of events each buffer retains (default
    [1 lsl 20]); past it, new events are counted as dropped instead of
    recorded.  [net_detail] additionally records one point per kernel
    message and round boundary (voluminous; default [false]).
    [profile_alloc] (default [false]) folds a [Gc.allocated_bytes] delta
    into every span's [Close] — the allocation the span's own domain
    performed while it was open; alloc figures are {e informational}
    (allocation is not part of any byte-identity gate) and with the flag
    off every [Close] carries [alloc = 0], leaving serialized traces
    byte-identical to an unprofiled build.  Raises [Invalid_argument] if
    a collector is already active. *)

type dump = { events : event list; dropped : int }

val stop : unit -> dump
(** Uninstall the collector and return everything recorded.  Raises
    [Invalid_argument] if no collector is active. *)

val active : unit -> bool
(** One atomic read; instrumentation sites use it as their only guard. *)

val net_detail : unit -> bool
(** Whether per-message kernel points were requested ([false] when no
    collector is active). *)

val ring_capacity : int
(** Size of the per-buffer flight-recorder ring ({!recent}). *)

val recent : unit -> event list
(** The last {!ring_capacity} events recorded by the calling task's
    buffer, oldest first ([[]] when no collector is active).  The ring is
    written on every push — including events dropped past the buffer
    capacity — so the tail is always the true most-recent window.  Because
    buffers are task-local, a reader running inside an {!Exec} task sees
    exactly its own cell's recent events, never another worker's: the
    result is a pure function of the task's seed.  Read-only (no mutation,
    no RNG), so callers such as the monitor's blame attribution keep the
    zero-perturbation contract. *)

(* ------------------------------------------------------------------ *)
(* Emission (instrumentation sites)                                     *)
(* ------------------------------------------------------------------ *)

val point : ?attrs:(string * int) list -> ?time:int -> layer -> string -> unit
(** Record a point.  [time] defaults to the enclosing span's time. *)

val with_span :
  ?attrs:(string * int) list ->
  ?ledger:Metrics.Ledger.t ->
  ?time:int ->
  layer ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span layer name f] runs [f] inside a span.  When a collector is
    active, the span's [Close] carries [Ledger.since] across [f] for the
    given [ledger]; the span closes (and the inherited time is restored)
    even if [f] raises.  When inactive this is exactly [f ()]. *)

(* ------------------------------------------------------------------ *)
(* Scheduler integration (used by Exec)                                 *)
(* ------------------------------------------------------------------ *)

type buf
(** One task's private event buffer, appended to its parent's in
    submission order after a parallel join. *)

val task_buf : unit -> buf
(** A fresh empty task buffer (call only while a collector is active). *)

val run_in_buf : buf -> (unit -> 'a) -> 'a
(** Make [buf] the calling domain's recording target for the duration of
    the callback (restored afterwards, also on exceptions).  Buffers are
    single-writer: two domains must not run in the same buffer
    concurrently — {!Exec.par_map} guarantees this by giving every task
    its own. *)

val merge : buf array -> unit
(** Append the task buffers' events, in array order, to the calling
    domain's current buffer — the submission-order merge. *)

(* ------------------------------------------------------------------ *)
(* Span reconstruction and serialisation                                *)
(* ------------------------------------------------------------------ *)

type span = {
  seq : int;  (** position of the span's [Open] in the stream *)
  depth : int;  (** nesting depth (0 = top level) *)
  name : string;
  layer : layer;
  time : int;
  attrs : (string * int) list;
  end_seq : int;  (** position just past the span's [Close] *)
  messages : int;  (** ledger delta across the whole span *)
  rounds : int;
  alloc : int;  (** allocation delta across the span (0 unless profiled) *)
  self_messages : int;  (** [messages] minus the direct children's share *)
  self_rounds : int;
  self_alloc : int;  (** [alloc] minus the direct children's share *)
}

type item =
  | Span of span
  | Mark of {
      seq : int;
      depth : int;
      name : string;
      layer : layer;
      time : int;
      attrs : (string * int) list;
    }

val items : dump -> item list
(** Pair [Open]/[Close] events into spans (in [Open] order) and surface
    points as marks.  An unmatched [Close] is dropped; a span left open
    (only possible if an exception unwound past an instrumentation site)
    is closed at end-of-stream with a zero delta. *)

val to_jsonl : dump -> string
(** One JSON object per {!item}, one per line, in stream order; object
    keys and attribute keys are emitted in sorted order so the bytes are a
    pure function of the event stream.  Spans carry [alloc]/[self_alloc]
    keys only when non-zero, so unprofiled dumps serialize exactly as
    before allocation accounting existed. *)

val to_chrome : dump -> string
(** Chrome [trace_event] JSON (open in Perfetto / chrome://tracing):
    spans become ["ph":"X"] complete events with [ts]/[dur] in stream
    sequence units, points become ["ph":"i"] instants. *)

(* ------------------------------------------------------------------ *)
(* Profiling                                                            *)
(* ------------------------------------------------------------------ *)

module Report : sig
  type t

  val of_dump : dump -> t

  val table_rows : t -> (string * int * int * int) list
  (** [(name, spans, self_messages, self_rounds)] in {!render}'s table
      order — the machine-readable face of the breakdown. *)

  val render : ?top:int -> t -> string
  (** The per-primitive breakdown table, sorted by self-messages
      (descending, then name): spans, total and self messages/rounds,
      mean and p50/p95 span rounds.  When the dump was recorded under
      [~profile_alloc] (some span carries a non-zero delta), two further
      columns report total and self allocated bytes per primitive.  Then
      a round-latency histogram ({!Metrics.Histogram.Samples.pp}) for
      the [top] primitives by self-messages (default 3). *)
end

val profiled :
  ?capacity:int -> ?net_detail:bool -> ?profile_alloc:bool ->
  (unit -> 'a) -> 'a * dump
(** [profiled f] = {!start}, run [f], {!stop} (also stopping when [f]
    raises).  Convenience for benches and tests. *)
