(* The cluster-table signature the engine functor ({!Engine_impl.Make}) is
   parameterised over, declared and documented once: both
   implementations' .mli files include it.  Two implementations satisfy
   it:

   - {!Cluster_table} — the flat struct-of-arrays arena (production);
   - {!Cluster_table_reference} — the original record/hashtable
     representation, kept as the oracle per the repo's cached-path
     convention (the qcheck equivalence suite drives both with identical
     operation sequences and compares snapshots, stats and digests).

   Behavioural contract, beyond the types: member order is observable
   (snapshots serialise it) and every implementation must realise the
   exact push / swap_remove / swap layout and the exact RNG draw sequence
   of the reference — byte-identity across representations is a gated
   invariant, not a nicety. *)

module type S = sig
  type t
  (** A partition of nodes into clusters. *)

  val create : is_byzantine:(int -> bool) -> t
  (** [is_byzantine node] must be stable for the node's lifetime (the
      adversary is static). *)

  val new_cluster : t -> members:int list -> int
  (** Create a cluster containing [members] (fresh cluster id returned).
      Members must not belong to another cluster. *)

  val new_cluster_with_id : t -> cid:int -> members:int list -> unit
  (** Snapshot-restore constructor: install a cluster under an explicit id
      (future fresh ids stay above it).  Raises [Invalid_argument] if the id
      is in use. *)

  val dissolve : t -> int -> int list
  (** Remove a cluster; returns its former members, now homeless. *)

  val add_member : t -> cluster:int -> node:int -> unit
  val add_members : t -> cluster:int -> nodes:int list -> unit
  (** Batch insertion counted as one logical step for violation tracking. *)

  val remove_member : t -> node:int -> unit
  (** Raises [Not_found] if the node is homeless. *)

  val remove_members : t -> cluster:int -> nodes:int list -> unit
  (** Batch removal from one cluster, one logical step for violation
      tracking (used by Split, where half the members leave at once). *)

  val swap : t -> int -> int -> unit
  (** Exchange the clusters of two nodes (no-op when they share one). *)

  val exchange_swap : t -> Prng.Rng.t -> node:int -> dest:int -> int * int
  (** Draw a uniform member of [dest] and swap it with [node]: byte-identical
      to {!uniform_member} followed by {!swap} (one [Rng.int] draw, same
      final layout) with far fewer table lookups — the exchange hot path.
      Returns [(size of node's cluster, size of dest)] before the swap. *)

  val cluster_of : t -> int -> int
  val size : t -> int -> int

  val byz_count : t -> int -> int
  (** Byzantine members of a cluster — O(1), maintained per mutation. *)

  val byz_fraction : t -> int -> float
  (** [byz_count / size] of a cluster. *)

  val members : t -> int -> int list
  (** Member nodes of a cluster in slot order (the {!member_at} order);
      allocates — hot paths should index with {!member_at} instead. *)

  val member_at : t -> int -> int -> int
  (** [member_at t cid i] is the node at member slot [i] of cluster [cid]
      (the order {!members} lists) — O(1), no allocation; the accessor the
      sharded exchange epoch's apply phase resolves plan slots with. *)

  val exists : t -> int -> bool

  val n_clusters : t -> int
  (** Live clusters — O(1). *)

  val n_nodes : t -> int
  (** Nodes across all clusters — O(1). *)

  val cluster_ids : t -> int list
  (** Live cluster ids, ascending (iteration-order-free: serialisation
      and digests may fold over it directly). *)

  val max_size : t -> int
  (** O(#clusters). *)

  val uniform_cluster : t -> Prng.Rng.t -> int
  (** Uniform over cluster ids. *)

  val sample_cluster_by_size : t -> Prng.Rng.t -> size_bound:int -> int
  (** Sample a cluster with probability proportional to its size — the
      target distribution of [randCl] — by rejection against [size_bound]
      (an upper bound on every cluster size; raises [Invalid_argument] if it
      is not). *)

  val uniform_member : t -> Prng.Rng.t -> int -> int

  val iter_clusters : t -> (int -> unit) -> unit
  (** Apply a function to every live cluster id in ascending order. *)

  val violations_now : t -> int
  (** Number of clusters where Byzantine members are >= 1/3 of the cluster
      (i.e. the >2/3-honest invariant does not hold), maintained in O(1). *)

  val violation_events : t -> int
  (** Number of transitions of any cluster into the violating state since
      creation — Theorem 3 predicts 0 whp for suitable parameters. *)

  val restore_violation_events : t -> int -> unit
  (** Snapshot-restore hook: reinstate the cumulative event counter. *)

  val min_honest_fraction : t -> float
  (** Smallest honest fraction over all clusters; 1.0 when empty.
      O(#clusters). *)

  val check_consistency : t -> unit
  (** Debug/test hook: verifies every index and counter invariant and
      raises [Failure] on corruption. *)
end
