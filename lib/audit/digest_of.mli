(** Canonical per-subsystem state digests for both engines.

    Each function reads one engine's complete observable state and folds
    it ({!Fnv}) into five subsystem digests, always over explicitly
    {e sorted} views (cluster ids, member lists, overlay edges, ledger
    labels, RNG stream names) so the digest never depends on iteration
    or insertion order.  The sorted order comes from ascending walks and
    int or string comparisons, never from polymorphic [compare]: the
    state-level table is one pass over the node ids (the view's
    [cluster_of]) into per-cluster buckets, each ascending by
    construction; the overlay is {!Dsgraph.Graph.iter_sorted_edges};
    ledger labels come sorted from {!Metrics.Ledger.labels}.  A
    state-level frame therefore costs time linear in the nodes and edges
    it folds.  The subsystems:

    - [table] — the cluster partition: every cluster id, its members in
      ascending order, then [-1];
    - [honesty] — the corruption marks (and, state-level, presence) of
      every node;
    - [overlay] — the overlay adjacency: {!Dsgraph.Graph.version}, vertex
      count and the sorted edge list (the version detects mutate-and-undo
      sequences a pure edge fold would miss);
    - [rng] — the saved per-stream generator cursors
      ({!Now_core.Engine.rng_cursors} / {!Cluster.Config.rng_cursors}),
      the first subsystem to drift when two runs consume their streams
      differently;
    - [ledger] — every cost-ledger label with its message/round totals.

    All reads are plain accessors: no random stream is touched, nothing
    is mutated (the monitor's zero-perturbation contract). *)

val subsystems : string list
(** The five subsystem names, sorted — the key order of {!engine} and
    {!config} results. *)

val view : Now_core.View.t -> (string * int64) list
(** [(subsystem, digest)] for any state-level engine through its
    read-only {!Now_core.View} — the representation-blind path both
    {!Now_core.Engine} (flat arena) and [Now_core.Engine_reference] (the
    oracle) digest through, in {!subsystems} order. *)

val engine : Now_core.Engine.t -> (string * int64) list
(** [(subsystem, digest)] for the state-level engine, in {!subsystems}
    order ([view] of [Engine.view]). *)

val config :
  ?extra_rng:(string * int64) list -> Cluster.Config.t -> (string * int64) list
(** [(subsystem, digest)] for the message-level configuration, in
    {!subsystems} order.  [extra_rng] folds additional named generator
    cursors into the [rng] subsystem (sorted with the configuration's
    own) — how the asynchronous engine's delay stream becomes
    bisectable. *)
