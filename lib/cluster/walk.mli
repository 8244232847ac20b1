(** Message-level biased CTRW — the [randCl] primitive (Section 3.1).

    A biased continuous-time random walk on the cluster overlay selects a
    cluster with probability proportional to its size (i.e. [|C|/n]),
    which is exactly the distribution needed to pick a {e node} uniformly
    at random: pick the cluster by [randCl], then a member by [randNum].

    Per the paper's footnote: at each hop the current cluster's members
    collaboratively draw a random number ({!Randnum}) that picks the next
    neighbour and decreases the remaining walk duration; the walk token is
    forwarded over the validated inter-cluster channel, so a node of the
    next cluster pursues the walk only when more than half of the previous
    cluster sent it identical messages.  When the duration runs out, the
    endpoint cluster is accepted with probability [|C| / max |C'|]
    (another [randNum] coin), otherwise the walk restarts from there.

    Per-hop cost: one [randNum] (O(log^2 N) messages) plus one validated
    transfer (O(log^2 N) messages).  With O(log^3 N) expected hops this
    gives the paper's O(log^5 N) messages and O(log^4 N) rounds. *)

type error =
  [ `Validation_failed of int
    (** a traversed cluster failed to validate the token, even after hop
        retries — only possible when some cluster lost its honest
        majority; carries the blamed cluster *)
  | `Too_many_restarts  (** the endpoint-acceptance coin never landed *) ]

type stats = {
  selected : int;  (** the chosen cluster *)
  hops : int;  (** inter-cluster transfers performed *)
  restarts : int;  (** rejected endpoints before acceptance *)
  hop_retries : int;
      (** failed token validations recovered by re-drawing the hop (0 on
          any fault-free walk); each retry emits a [walk.retry] trace
          point *)
}

(** {2 Leaves}

    randCl and exchange are written once, over the two leaf primitives an
    engine provides: {!sync} for this engine, [Asim.Session.leaves] for
    the asynchronous one, which delivers on an event queue.  The engines
    therefore differ only in delivery and tallies, never in a composite's
    decisions. *)

type leaves = {
  randnum : cluster:int -> range:int -> Randnum.outcome * float;
      (** one in-cluster draw and its makespan *)
  transmit :
    src_cluster:int ->
    dst_cluster:int ->
    label:string ->
    payload:int ->
    Valchan.result * float;
      (** one validated transfer and its makespan *)
  bulk_rounds : int;
      (** rounds one bulk ledger charge (a node transfer, a view update)
          costs: 1 synchronously, 0 asynchronously (virtual time replaces
          round counting there) *)
  span_time : unit -> int;
      (** the logical time stamp of a composite's trace span: the ledger's
          round total, or the asynchronous session's virtual clock *)
}

val sync : Config.t -> leaves
(** The synchronous engine's leaves: {!Randnum.run} and
    {!Valchan.transmit} with zero makespans, one round per bulk charge,
    spans stamped with the ledger's round total. *)

val rand_cl :
  ?duration:float ->
  ?max_restarts:int ->
  ?max_hop_retries:int ->
  Config.t ->
  start:int ->
  (stats, error) Stdlib.result
(** [rand_cl cfg ~start] runs the walk from cluster [start].  [duration]
    defaults to [2 * log2 (#clusters) / mean-degree] time units (about
    [2 log2 #C] hops, the CTRW firing at rate deg(v)); [max_restarts]
    to 1000.

    Honest-side tolerance: when a token transfer fails validation (a
    Byzantine majority of the current cluster dropped or misrouted its
    copies — {!Agreement.Byz_behavior.Drop_walk} /
    {!Agreement.Byz_behavior.Misroute_walk}), the hop is re-drawn with a
    fresh {!Randnum} draw up to [max_hop_retries] times (default 2)
    across the walk before [`Validation_failed] blames the current
    cluster.  Fault-free walks are unaffected by the retry logic. *)

val rand_cl_on :
  leaves ->
  ?duration:float ->
  ?max_restarts:int ->
  ?max_hop_retries:int ->
  Config.t ->
  start:int ->
  (stats, error) Stdlib.result * float
(** {!rand_cl} over the given leaves (the same hop decisions and draw
    sequence on any engine), plus the walk's makespan: the sum of its
    draws' and token transfers' makespans. *)

val pick_member : Config.t -> cluster:int -> int
(** Uniform member of the cluster via {!Randnum} ([randNum(|C|)]). *)

val pick_member_on : leaves -> Config.t -> cluster:int -> int * float
(** {!pick_member} over the given leaves, plus the draw's makespan. *)

val pick_node :
  ?duration:float -> Config.t -> start:int -> (int, error) Stdlib.result
(** Quasi-uniform node sample: [randCl] then [pick_member]. *)
