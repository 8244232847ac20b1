(** Narrow read-only window onto an engine's state.

    The flat-arena refactor made the engine's representation an
    implementation detail; this record is the seam that keeps it one.
    Every external reader — {!Monitor} probes, the audit layer's digests,
    the scenario driver's stats, the snapshot writer — consumes a [t]
    (obtained from [Engine.view] or [Engine_reference.view]) instead of
    poking at the representation, so digests, tables and dashboards are
    byte-identical across representations by construction.

    Zero-perturbation contract: every field is a pure read — no random
    stream is consumed and nothing is mutated. *)

(** Lifetime operation counters (survive save/load). *)
type totals = {
  total_joins : int;
  total_leaves : int;
  total_splits : int;
  total_merges : int;
  total_rejoins : int;
  total_walks : int;
}

(** Cost report of the initialisation phase (Section 3.2). *)
type init_report = {
  n0 : int;  (** nodes at initialisation *)
  bootstrap_edges : int;  (** edges of the physical discovery graph *)
  discovery_messages : int;
  discovery_rounds : int;  (** bounded by the honest-adjacent diameter *)
  agreement_messages : int;  (** modeled King–Saia cost, Õ(n sqrt n) *)
  agreement_rounds : int;
  partition_messages : int;
  initial_clusters : int;
}

(** The read-only accessors.  Closures close over the live engine, so a
    long-lived view always reads current state (the monitor samples one
    view across a whole trajectory). *)
type t = {
  params : Params.t;  (** protocol parameters (immutable) *)
  init_report : init_report;  (** initialisation cost report (immutable) *)
  time : unit -> int;  (** join/leave operations executed *)
  merge_skips : unit -> int;  (** merges skipped for want of a victim *)
  pending_rejoin : unit -> int list;  (** queued Rejoin_self members *)
  rng_cursors : unit -> (string * int64) list;
      (** saved per-stream generator states, for the audit [rng] digest *)
  totals : unit -> totals;  (** lifetime operation counters *)
  n_nodes : unit -> int;  (** present nodes (including pending re-joins) *)
  n_clusters : unit -> int;  (** live clusters *)
  cluster_ids : unit -> int list;  (** live cluster ids, sorted *)
  members : int -> int list;  (** member list of one cluster, slot order *)
  cluster_of : int -> int;
      (** the cluster holding a node id, or [-1] when the node is in no
          cluster: absent, or present but queued to re-join under
          [Rejoin_self].  O(1) and allocation-free, so one pass over the
          ids [0 .. total_allocated - 1] buckets every cluster's members
          in ascending id order (the audit [table] digest's counting
          sort). *)
  cluster_stats : unit -> (int * int * int) list;
      (** [(cid, size, byz)] per cluster, sorted by id — integer counts so
          bound checks avoid float rounding at exactly 2/3 *)
  min_honest_fraction : unit -> float;  (** worst per-cluster honest frac *)
  violations_now : unit -> int;  (** clusters currently <= 2/3 honest *)
  violation_events : unit -> int;  (** cumulative violation transitions *)
  total_allocated : unit -> int;  (** node ids ever issued *)
  honesty : int -> Node.honesty;  (** permanent honesty record *)
  is_present : int -> bool;  (** roster presence *)
  graph : unit -> Dsgraph.Graph.t;  (** the OVER overlay graph (read-only) *)
  overlay_health : ?spectral_iterations:int -> unit -> Over.health;
      (** overlay health summary (memoised on the graph version) *)
  ledger : unit -> Metrics.Ledger.t;  (** the cost ledger (read-only) *)
}

val save : t -> string
(** Serialise the complete engine state into the line-oriented
    "NOW-SNAPSHOT v1" text format.  Reads exclusively through the view,
    so both engine representations serialise byte-identically. *)
