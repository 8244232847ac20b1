(** Alternative expander overlay: the union of r random Hamiltonian cycles
    (Law & Siu, INFOCOM 2003 — reference [26] of the paper, which notes
    NOW can run on such overlays instead of OVER).

    Every vertex belongs to each of the [r] cycles, so degrees are at most
    [2 r] (less where cycle neighbours coincide); for [r >= 2] the union
    is an expander with high probability.  Joins splice the new vertex
    into each cycle at an independent random position; leaves splice it
    out — both O(r) edge updates, the degree-optimal maintenance cost the
    related-work section mentions.

    Used by experiment E4 to compare the two maintenance mechanisms under
    identical churn; the NOW engine itself runs on OVER. *)

type t

val create : rng:Prng.Rng.t -> r:int -> initial:int list -> t
(** [r >= 1] random cycles over the initial vertices (at least 3). *)

val add_vertex : t -> int -> unit
(** Splice into every cycle at a random position.  Raises
    [Invalid_argument] if present. *)

val remove_vertex : t -> int -> unit
(** Splice out of every cycle.  Raises [Invalid_argument] when removal
    would leave fewer than 3 vertices; no-op if absent. *)

val n_vertices : t -> int

val graph : t -> Dsgraph.Graph.t
(** The materialised union graph (maintained incrementally; do not
    mutate). *)

val health : ?spectral_iterations:int -> t -> Overlay_health.health

val check_consistency : t -> unit
(** Test hook: verifies that each cycle is a single closed tour visiting
    every vertex and that the union graph matches the cycles exactly. *)
