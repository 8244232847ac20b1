(** The exchange (node-shuffling) primitive, message level (Section 3.1).

    Shuffling upon every arrival and departure is what prevents the
    adversary from gradually polluting one cluster by targeted join-leave
    churn.  For each node [x] to be exchanged out of cluster [C]:

    + a destination cluster [C'] is chosen by [randCl] (probability
      proportional to size, i.e. a uniform node slot);
    + [C'] is informed over the validated channel that it receives [x];
    + [C'] picks one of its members uniformly with [randNum] and sends it
      back in replacement of [x];
    + the neighbours of an affected cluster are told its new composition
      (a message from each member to every member of every adjacent
      cluster — this is what keeps the inter-cluster majority rule sound).

    Expected cost (paper): O(log^6 N) messages, O(log^4 N) rounds per
    full-cluster exchange. *)

type error = Walk.error

val exchange_node :
  ?duration:float -> Config.t -> node:int -> (int, error) Stdlib.result
(** Exchange a single node out of its current cluster; returns the cluster
    that received it (possibly its original one — a walk may select the
    node's own cluster, which leaves membership unchanged). *)

val exchange_all :
  ?duration:float -> Config.t -> cluster:int -> (int list, error) Stdlib.result
(** Exchange every member of [cluster] (snapshot taken up-front, as the
    protocol does).  Returns the sorted list of distinct clusters that
    swapped a node with it.  Ends by charging the composition-update
    messages ({!view_cost}) to the neighbours of every affected
    cluster. *)

val exchange_node_on :
  Walk.leaves ->
  ?duration:float ->
  Config.t ->
  node:int ->
  (int, error) Stdlib.result * float
(** {!exchange_node} over the given leaves, plus its makespan: the sum of
    the walk's, the announcement's and the replacement draw's.  Bulk
    charges (the node transfer) cost [bulk_rounds] rounds. *)

val exchange_all_on :
  Walk.leaves ->
  ?duration:float ->
  Config.t ->
  cluster:int ->
  (int list, error) Stdlib.result * float
(** {!exchange_all} over the given leaves, plus the summed makespan of its
    node exchanges (the view updates are bulk charges with no
    makespan). *)

val view_cost : Config.t -> int -> int
(** Messages one cluster's composition announcement costs: its size times
    the summed sizes of its overlay neighbours (every member tells every
    member of every adjacent cluster).  Churn operations ({!Ops}) charge
    their view updates with it too. *)
