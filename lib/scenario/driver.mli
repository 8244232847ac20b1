(** The engine-agnostic driver contract.

    A driver owns one running instance of a scenario — an engine or
    message-level configuration plus the mutable tallies of everything the
    trajectory did — and exposes the uniform surface the generic runner
    needs: advance one step, emit a monitor sample, report final
    statistics.  {!State_driver} implements it over [Now_core.Engine]
    (generalising [Adversary.run]); {!Msg_driver} implements it over
    [Cluster] with real per-node messages. *)

module Stats : sig
  type t = {
    steps : int;  (** steps executed *)
    joins : int;  (** successful join operations *)
    leaves : int;  (** successful leave operations *)
    splits : int;  (** splits triggered by churn *)
    merges : int;  (** merges triggered by churn *)
    churn_failures : int;
        (** churn operations the engine refused (validated channel broke
            under heavy corruption) — never an exception *)
    n_nodes : int;  (** final population *)
    n_clusters : int;  (** final cluster count *)
    min_honest_fraction : float;
        (** worst per-cluster honest fraction seen at any step *)
    target_byz_fraction : float;
        (** targeting strategies: Byzantine fraction of the target
            cluster (0 otherwise; state-level only) *)
    violations_now : int;  (** standing invariant violations at the end *)
    violation_events : int;  (** transient violation events (state-level) *)
    majority_violations : int;
        (** per-step scans that found a cluster at or below 2/3 honest
            (message-level) *)
    min_size : int;  (** smallest cluster size seen (message-level scans) *)
    max_size : int;  (** largest cluster size seen (message-level scans) *)
    walks_ok : int;  (** completed [randCl] walks *)
    walks_failed : int;  (** walks that failed validation or restarts *)
    walk_retries : int;  (** honest-side hop retries across walks *)
    walk_misblamed : int;
        (** failed walks that blamed a cluster outside the system *)
    randnum_stalls : int;  (** detected reconstruction stalls *)
    randnum_insecure : int;  (** draws with the secure flag down *)
    valchan_accepted : int;  (** transfers accepted unanimously *)
    valchan_forged : int;  (** transfers where a forged value surfaced *)
    valchan_rejected : int;  (** transfers rejected without forgery *)
    exchanges : int;  (** explicit full-cluster exchanges *)
    messages : int;  (** ledger message total *)
    rounds : int;  (** ledger round total *)
    virtual_time : float;
        (** accumulated primitive makespan in delay units (asynchronous
            engine only; 0 on the synchronous drivers, whose time is
            counted in [rounds]) *)
    session_timeouts : int;
        (** asynchronous sub-sessions that hit their deadline instead of
            completing early *)
    lat_p99 : float;
        (** 99th-percentile sub-session makespan (asynchronous engine
            only; estimated by {!Metrics.Histogram.Buckets}, 0 on the
            synchronous drivers) *)
  }
  (** Everything a finished trajectory reports.  Drivers fill the fields
      that apply to their engine and leave the rest at {!zero}'s
      values. *)

  val zero : t
  (** All counters zero, [min_honest_fraction] 1.0. *)

  val summary : t -> string
  (** One deterministic line (no wall-clock, no addresses) for CLI
      output; the determinism CI gate diffs it across [-j] and reruns.
      Appends the virtual-time fields only when they are non-zero, so
      synchronous summaries keep their historical shape byte-exactly. *)
end

module type S = sig
  type t

  val kind : string
  (** ["state"], ["msg"] or ["async"]. *)

  val labels : t -> (string * string) list
  (** The monitor/trace labels fixed at creation. *)

  val label : t -> string
  (** Short display label ([kind:scenario-name]). *)

  val step : t -> time:int -> unit
  (** Advance the trajectory by one step: apply the spec's churn, drive
      the enabled primitives, update the tallies.  Must never raise on
      protocol-level failures (they are counted). *)

  val sample : t -> time:int -> unit
  (** Emit a monitor sample at [time] (no-op without an installed
      monitor; must never draw randomness or mutate the engine). *)

  val stats : t -> Stats.t
  (** Tallies so far. *)
end
(** The uniform driving surface.  Construction is driver-specific (each
    engine has its own seeding conventions), so [create] lives in the
    implementations. *)
