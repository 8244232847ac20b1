(** Continuous-time random walks (CTRW) on graphs.

    In the CTRW used by the paper (Aldous & Fill), every edge adjacent to
    the current vertex fires at rate 1; equivalently the walk waits an
    Exp(deg v) holding time at vertex [v] and then moves to a uniformly
    chosen neighbour.  Its stationary distribution is {e uniform} on any
    connected graph, regardless of the degree sequence — the property NOW
    relies on to sample clusters quasi-uniformly from a non-regular
    overlay.

    [randCl] (cluster selection with probability [|C|/n]) is the biased
    variant: run a CTRW for a fixed duration, then accept the endpoint
    cluster with probability [|C| / max_C |C'|], restarting the walk
    otherwise (footnote of Section 3.1). *)

val walk :
  Dsgraph.Graph.t ->
  Prng.Rng.t ->
  start:int ->
  duration:float ->
  ?on_hop:(int -> int -> unit) ->
  unit ->
  int * int
(** [walk g rng ~start ~duration ()] runs the CTRW from [start] for
    [duration] time units and returns [(endpoint, hops)].  [on_hop from to_]
    is invoked on every hop (used for communication-cost accounting).
    An isolated start vertex never moves. *)

val biased_select :
  Dsgraph.Graph.t ->
  Prng.Rng.t ->
  start:int ->
  duration:float ->
  weight:(int -> float) ->
  max_weight:float ->
  ?on_hop:(int -> int -> unit) ->
  ?on_restart:(int -> unit) ->
  ?max_restarts:int ->
  unit ->
  int
(** [biased_select] implements the biased CTRW: repeatedly run a CTRW
    segment of [duration]; accept endpoint [v] with probability
    [weight v /. max_weight], else restart the walk from [v].
    [on_restart v] is called on each rejection.  Gives endpoint
    distribution proportional to [weight] once a single segment mixes to
    uniform.  Raises [Failure] after [max_restarts] rejections
    (default 10_000). *)

val endpoint_counts :
  Dsgraph.Graph.t ->
  Prng.Rng.t ->
  start:int ->
  duration:float ->
  trials:int ->
  (int, int) Hashtbl.t
(** Empirical endpoint histogram of [trials] independent plain walks. *)

val tv_distance_to : counts:(int, int) Hashtbl.t -> target:(int -> float) -> vertices:int list -> float
(** Total-variation distance between the empirical distribution in
    [counts] (over [vertices]) and the probability mass function [target].
    [target] must sum to 1 over [vertices]. *)
