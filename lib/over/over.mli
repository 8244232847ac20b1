(** OVER — maintenance of an Over-valued Erdős–Rényi expander overlay.

    Overlay vertices are cluster identifiers (the clusters maintained by
    NOW are >2/3-honest whp, so vertices act honestly).  OVER's contract
    (Properties 1 and 2 of the paper): under a polynomially long sequence
    of vertex additions and removals — with removed vertices chosen at
    random — the graph keeps a large isoperimetric constant and maximum
    degree O(log^{1+alpha} N).

    The detailed pseudo-code of OVER lives in the long (arXiv) version of
    the paper; this implementation follows the short version's description:

    - the initial overlay is an Erdős–Rényi graph (edge probability chosen
      to hit the target degree);
    - [add_vertex] links the new vertex to [target_degree] clusters chosen
      by the caller-supplied sampler (NOW passes [randCl], Fig. 2's
      "2 log^2 N edges are added using randCl");
    - [remove_vertex] deletes the vertex, then every surviving neighbour
      whose degree fell below half the target re-fills its edges from the
      same sampler;
    - degrees are capped at [2 * target_degree]: an over-full vertex sheds
      uniformly random excess edges.

    The sampler [pick] must return the id of some current vertex (it may
    return the requesting vertex or a duplicate; such draws are retried). *)

type t

val create : rng:Prng.Rng.t -> target_degree:(n_vertices:int -> int) -> t
(** Empty overlay.  [target_degree ~n_vertices] gives the desired degree
    when the overlay has [n_vertices] vertices (NOW passes
    [min (n-1, c (log2 N)^{1+alpha})]). *)

val init_erdos_renyi : t -> vertices:int list -> unit
(** Install the initial vertex set and draw each possible edge with
    probability [target_degree / (n-1)]; afterwards, stray components are
    linked and under-full vertices refilled so the graph is connected and
    near-regular.  Must be called on an empty overlay. *)

val graph : t -> Dsgraph.Graph.t
(** The live overlay graph.  Callers must not mutate it. *)

val restore :
  rng:Prng.Rng.t ->
  target_degree:(n_vertices:int -> int) ->
  vertices:int list ->
  edges:(int * int) list ->
  t
(** Snapshot-restore constructor: install an explicit vertex and edge set
    without any regulation pass. *)

val rng_state : t -> int64
(** The overlay's private generator state (for exact snapshots). *)

val n_vertices : t -> int
(** Number of clusters in the overlay. *)

val mem : t -> int -> bool
(** Whether the cluster is a vertex of the overlay. *)

val add_vertex : t -> int -> pick:(unit -> int) -> unit
(** Insert a fresh vertex and give it [target_degree] edges to clusters
    drawn from [pick].  Raises [Invalid_argument] if the id is present. *)

val remove_vertex : t -> int -> pick:(unit -> int) -> unit
(** Delete a vertex; neighbours left under-full re-fill via [pick], and
    the vertices a refill connects to shed any excess over the degree
    cap, as {!add_vertex}'s receiving vertices do.  No-op if absent. *)

type health = Overlay_health.health = {
  n_vertices : int;
  n_edges : int;
  min_degree : int;
  max_degree : int;
  mean_degree : float;
  connected : bool;
  spectral_expansion_lower : float;  (** mu2/2 lower bound on I(G) *)
  sweep_expansion_upper : float;  (** Fiedler sweep-cut upper bound on I(G) *)
}

val health : ?spectral_iterations:int -> t -> health
(** Measure Properties 1 and 2 on the current overlay.  Memoised on the
    graph's mutation version (see {!Health_cache}): repeated queries
    between churn events reuse the previous measurement, byte-identically. *)

val graph_health : ?spectral_iterations:int -> Dsgraph.Graph.t -> health
(** The same measurement on any graph (used to compare alternative overlay
    constructions, e.g. {!Cycles}). *)

val health_metrics : health -> (string * float) list
(** {!Overlay_health.health_metrics}: the record flattened to sorted
    [(metric name, value)] pairs for time-series consumers (the invariant
    monitor's overlay probe). *)

val pp_health : Format.formatter -> health -> unit

module Health_cache = Overlay_health.Cache
(** Incrementally-invalidated health memo (re-exported sibling module);
    see {!Overlay_health.Cache}.  Embed one next to any graph whose health
    is polled more often than it is mutated. *)

module Cycles = Cycles
(** Alternative expander overlay — the Law-Siu union of random cycles
    (re-exported sibling module); see {!Cycles}. *)
