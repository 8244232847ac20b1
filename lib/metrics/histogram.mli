(** The repo's histogram, in two modes: {!Samples} keeps every
    observation (exact percentiles, linear memory), {!Buckets} keeps
    counts over log-spaced buckets (estimated percentiles, constant
    memory). *)

(** Exact-percentile sample store (keeps every observation; use for
    experiment-scale sample counts). *)
module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val add_int : t -> int -> unit
  val count : t -> int
  val percentile : t -> float -> float
  (** [percentile t p] with [p] in [0,100]; nearest-rank on the sorted
      samples.  [nan] when empty. *)

  val median : t -> float

  val pp : bins:int -> Format.formatter -> t -> unit
  (** Render as a small ASCII bar chart of [bins] equal bins over the
      samples' own [[min, max]] (an all-equal store is drawn over
      [[min, min + 1]]), one line per bin from the first non-empty bin
      to the last; [(empty histogram)] when empty.  The samples must be
      finite.  Raises [Invalid_argument] if [bins <= 0]. *)
end

(** Log-bucketed latency histogram with deterministic bucket edges.

    The runtime-observability counterpart of {!Samples}: where the
    sample store keeps every observation (exact percentiles, linear
    memory), this histogram keeps a fixed array of counts over
    exponentially growing buckets — constant memory for any number of
    observations, with every percentile estimate within one bucket ratio
    ({!growth}, about 19%) of the exact value.  Session-latency streams
    from {!Asim} record here.

    Determinism: the bucket edges are a compile-time constant table built
    by repeated multiplication from {!bucket_lo} (never [log]/[exp] at
    query time, whose libm rounding could differ between hosts), and
    recording touches only integer counters plus an exact running
    max/sum.  Same observations in any order → identical state, so
    everything derived from a histogram is safe to export under the
    repo's byte-identical-for-any-[-j] contract.  No RNG, no wall clock:
    reading a histogram obeys the monitor's zero-perturbation rule. *)
module Buckets : sig
  type t
  (** A histogram: bucket counts, exact count/sum/max. *)

  val growth : float
  (** The bucket-edge growth ratio, [2{^ 1/4}] — consecutive edges differ
      by ~19%, which bounds the relative error of {!percentile}. *)

  val bucket_lo : float
  (** Upper edge of the first bucket ([1e-9]); observations at or below it
      (including zeros) land in bucket 0. *)

  val create : unit -> t
  (** A fresh, empty histogram. *)

  val add : t -> float -> unit
  (** Record one observation.  Negative and NaN observations count into
      bucket 0 (they never occur on the latency paths that feed this
      module, but must not corrupt the state if they do); values beyond
      the last edge clamp into the top bucket ({!max_value} stays exact
      either way). *)

  val count : t -> int
  (** Observations recorded (exact). *)

  val sum : t -> float
  (** Sum of all observations (exact, in recording order). *)

  val max_value : t -> float
  (** Largest observation (exact); [nan] when empty. *)

  val mean : t -> float
  (** [sum / count]; [nan] when empty. *)

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in [[0, 100]]: the nearest-rank percentile,
      estimated as the upper edge of the bucket holding that rank and
      clamped to the exact {!max_value} — so the estimate [e] of an exact
      percentile [x] satisfies [x <= e <= x * growth] (or [e <= bucket_lo]
      when [x] falls in bucket 0).  [nan] when empty; raises
      [Invalid_argument] outside [[0, 100]]. *)

  val merge : t -> t -> t
  (** [merge a b] is a fresh histogram equivalent to recording every
      observation of [a] and of [b]; neither input is mutated. *)

  val buckets : t -> (float * float * int) list
  (** [(lower_edge, upper_edge, count)] for every non-empty bucket, in
      edge order (bucket 0's lower edge is reported as [0.]). *)
end
