(** The flight recorder: cadenced collection of per-subsystem state
    digests into a deterministic frame store.

    A recorder accumulates {e frames} — one [(labels, step, subsystem,
    digest)] record per subsystem per sampled step — from any number of
    {!Exec} worker domains (writes are mutex-protected); determinism
    comes from the read side: {!frames} returns a canonical total order,
    so the exported stream is a pure function of the {e set} of frames,
    which is itself a pure function of each cell's seed.

    Like the trace collector and the monitor, at most one recorder is
    globally installed at a time; the [maybe_record_*] hooks compiled
    into the scenario drivers are one atomic read when none is installed
    and never touch a random stream, so enabling recording cannot change
    a single output byte (tested and CI-gated). *)

type frame = {
  f_labels : (string * string) list;  (** sorted by key (e.g. cell id) *)
  step : int;  (** driver step the digest was taken at *)
  subsystem : string;  (** one of {!Digest_of.subsystems} *)
  digest : int64;
}

type t
(** A mutable, thread-safe collection of frames. *)

val create : ?cadence:int -> unit -> t
(** A fresh empty recorder.  [cadence] (default 1) is the step sampling
    period: the hooks record on every [cadence]-th step.  Raises
    [Invalid_argument] if [cadence < 1]. *)

val frames : t -> frame list
(** Every recorded frame in the canonical total order
    [(labels, step, subsystem, digest)] — the stream every exporter
    serialises. *)

val n_frames : t -> int
(** Recorded frame count. *)

val install : t -> unit
(** Make [t] the globally installed recorder the [maybe_record_*] hooks
    feed.  Raises [Invalid_argument] if one is already installed. *)

val uninstall : unit -> t
(** Remove and return the installed recorder.  Raises [Invalid_argument]
    if none is installed. *)

val recording : unit -> bool
(** Whether a recorder is installed (one atomic read). *)

val with_recorder : t -> (unit -> 'a) -> 'a
(** [with_recorder r f] installs [r], runs [f] and uninstalls again,
    also on exception. *)

val maybe_record_engine :
  ?labels:(string * string) list -> step:int -> Now_core.Engine.t -> unit
(** {!Digest_of.engine} into the installed recorder when one is
    installed {e and} [step] falls on its cadence; no-op otherwise. *)

val maybe_record_config :
  ?labels:(string * string) list -> ?extra_rng:(string * int64) list ->
  step:int -> Cluster.Config.t -> unit
(** {!Digest_of.config}, with the same installed + cadence gating;
    [extra_rng] passes extra generator cursors through to the [rng]
    digest (the asynchronous driver's delay stream). *)
