(** Message-level system configuration: the cluster partition and overlay a
    protocol session runs against.

    The message-level engine executes NOW's primitives (validated
    inter-cluster channels, randNum, the biased CTRW, exchange) against
    this explicit configuration, charging every per-node message to its
    {!ledger}.  The state-level engine in [Now_core] is the fast
    counterpart; experiment E5 cross-validates their cost accounting. *)

type t

val make :
  rng:Prng.Rng.t ->
  ?ledger:Metrics.Ledger.t ->
  byzantine:(int -> Agreement.Byz_behavior.t option) ->
  clusters:(int * int list) list ->
  overlay:Dsgraph.Graph.t ->
  unit ->
  t
(** [clusters] maps cluster ids to member node ids (ids must be globally
    distinct); [overlay] has one vertex per cluster id.  Raises
    [Invalid_argument] on duplicate members or vertex/cluster mismatch. *)

val build_uniform :
  rng:Prng.Rng.t ->
  ?ledger:Metrics.Ledger.t ->
  ?behavior:(int -> Agreement.Byz_behavior.t) ->
  n_clusters:int ->
  cluster_size:int ->
  byz_per_cluster:int ->
  overlay_degree:int ->
  unit ->
  t
(** Convenience builder for tests and benches: [n_clusters] clusters of
    [cluster_size] nodes, the first [byz_per_cluster] members of each being
    Byzantine, linked by a near-regular random overlay of degree
    [overlay_degree].  [behavior] maps a corrupted node id to its
    behaviour; the default, [Random_noise (node + 1)], keeps historical
    tables byte-identical. *)

val rng : t -> Prng.Rng.t
(** The configuration's root random stream (all primitives draw from it). *)

val rng_cursors : t -> (string * int64) list
(** The configuration's generator cursors ([("config", ...)]) as saved
    states ({!Prng.Rng.save}) — the audit layer's [rng] subsystem probe.
    Read-only: taking a cursor never advances the stream. *)

val ledger : t -> Metrics.Ledger.t
(** The shared message/round cost ledger. *)

val overlay : t -> Dsgraph.Graph.t
(** The inter-cluster overlay graph (vertices are cluster ids). *)

val overlay_health : ?spectral_iterations:int -> t -> Over.health
(** {!Over.graph_health} on the overlay, memoised on the graph's mutation
    version ({!Over.Health_cache}): between overlay changes, repeated
    probes reuse the previous measurement byte-identically. *)

val byzantine : t -> int -> Agreement.Byz_behavior.t option
(** The behaviour a corrupted node runs, [None] for honest nodes. *)

val is_byzantine : t -> int -> bool
(** [is_byzantine t node = (byzantine t node <> None)]. *)

val cluster_ids : t -> int list
(** Sorted. *)

val members : t -> int -> int list
(** Sorted member ids of a cluster; raises [Not_found] for unknown ids. *)

val size : t -> int -> int
(** Member count of a cluster; raises [Not_found] for unknown ids. *)

val cluster_of : t -> int -> int
(** Cluster currently hosting a node. *)

val n_nodes : t -> int
(** Total node count across all clusters. *)

val max_cluster_size : t -> int
(** Size of the largest cluster (0 when there are none). *)

val byz_count : t -> int -> int
(** Byzantine member count of a cluster; raises [Not_found] for unknown
    ids.  O(size) — intended for monitoring probes, not hot paths. *)

val honest_fraction : t -> int -> float
(** Honest members over total members of a cluster ([1.0] when empty);
    raises [Not_found] for unknown ids. *)

val honest_majority : t -> int -> bool
(** More than 2/3 of the cluster's members are honest. *)

val move_node : t -> node:int -> to_cluster:int -> unit
(** Re-home a node (used by exchange).  O(size) for the ordered lists. *)

val swap_nodes : t -> int -> int -> unit
(** Exchange the clusters of two nodes. *)

val add_cluster : t -> cid:int -> members:int list -> unit
(** Create a new cluster from nodes currently homed elsewhere (they are
    moved in) — the membership side of a Split.  The overlay vertex is
    added with no edges; callers wire it ({!Walk}-selected neighbours).
    Raises [Invalid_argument] if the id is in use or a member is unknown. *)

val remove_cluster : t -> cid:int -> unit
(** Remove an {e empty} cluster and its overlay vertex — the final step of
    a Merge.  Raises [Invalid_argument] if members remain. *)

val register_node :
  t -> node:int -> ?byzantine:Agreement.Byz_behavior.t -> cluster:int -> unit -> unit
(** A fresh node enters the system into [cluster]; the (static) adversary
    decides its behaviour at this moment and never again.  Raises
    [Invalid_argument] if the id is already present. *)

val remove_node : t -> node:int -> unit
(** The node leaves the network (its honesty record is dropped with it).
    Raises [Not_found] if absent. *)
