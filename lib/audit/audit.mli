(** The audit layer: a zero-perturbation flight recorder of canonical
    state digests, and first-divergence bisection on top of it.

    Sits above trace (events), metrics (costs) and monitor (bounds) and
    answers the remaining question: {e where exactly did two runs
    diverge?}  At a configurable cadence the installed {!Recorder} folds
    five per-subsystem digests ({!Digest_of}: cluster table, honesty
    marks, overlay adjacency, RNG cursors, ledger counters) from either
    engine into a deterministic frame stream; {!Export} serialises it
    byte-identically across [-j] values and reruns, and {!Bisect}
    reports the first step and subsystem whose digests differ between
    two streams.

    Recording obeys the monitor's two standing contracts: the stream is
    byte-identical for any worker count, and recording on or off changes
    no table/trace/monitor output byte (tested and CI-gated). *)

module Fnv = Fnv
(** FNV-1a 64-bit digest folding; see {!Fnv}. *)

module Digest_of = Digest_of
(** Canonical per-subsystem digests of both engines; see {!Digest_of}. *)

module Recorder = Recorder
(** The cadenced frame store with its global install slot; see
    {!Recorder}. *)

module Export = Export
(** Sorted digest-stream JSONL (out and back in); see {!Export}. *)

module Bisect = Bisect
(** First-divergence search between two streams; see {!Bisect}. *)

type t = Recorder.t
(** An audit session is its recorder. *)

val create : ?cadence:int -> unit -> t
(** {!Recorder.create}. *)

val install : t -> unit
(** {!Recorder.install}. *)

val uninstall : unit -> t
(** {!Recorder.uninstall}. *)

val recording : unit -> bool
(** {!Recorder.recording}. *)

val with_recorder : t -> (unit -> 'a) -> 'a
(** {!Recorder.with_recorder}. *)

val maybe_record_engine :
  ?labels:(string * string) list -> step:int -> Now_core.Engine.t -> unit
(** {!Recorder.maybe_record_engine}. *)

val maybe_record_config :
  ?labels:(string * string) list -> ?extra_rng:(string * int64) list ->
  step:int -> Cluster.Config.t -> unit
(** {!Recorder.maybe_record_config}. *)
