(** Undirected simple graphs over integer vertex ids.

    This is the substrate for the OVER overlay: vertices are cluster ids
    (arbitrary, reusable integers), edges are overlay links.  Mutations are
    O(1) expected; adjacency is stored as hash sets, so neighbour iteration
    is O(degree).

    Iteration order is part of each reader's contract, because random
    draws index it and digests fold it.  Readers come in two kinds: hash
    order ({!neighbors}, {!neighbor_array}, {!iter_neighbors},
    {!vertices}, {!iter_vertices}, {!edges}) is deterministic for a given
    mutation history but says nothing about the ids; ascending order
    ({!sorted_neighbors}, {!iter_sorted_edges}) depends on the ids alone,
    which is what canonical serialisations need. *)

type t
(** A mutable undirected simple graph: no self-loops, no parallel edges. *)

val create : unit -> t
(** An empty graph (no vertices, version 0). *)

val version : t -> int
(** Mutation counter: bumped by every effective vertex/edge change.
    Caches keyed on [(physical graph, version)] stay valid exactly as
    long as the version is unchanged. *)

val add_vertex : t -> int -> unit
(** Idempotent. *)

val remove_vertex : t -> int -> unit
(** Removes the vertex and all incident edges; no-op if absent. *)

val has_vertex : t -> int -> bool
(** Whether the vertex is present (isolated vertices count). *)

val add_edge : t -> int -> int -> bool
(** [add_edge g u v] inserts the undirected edge; returns [false] if the
    edge already existed or [u = v].  Adds missing endpoints. *)

val remove_edge : t -> int -> int -> bool
(** Returns [false] if the edge was absent. *)

val has_edge : t -> int -> int -> bool
(** [has_edge g u v = has_edge g v u]; [false] when either endpoint is
    absent. *)

val degree : t -> int -> int
(** 0 for absent vertices. *)

val neighbors : t -> int -> int list
(** Neighbours of a vertex ([[]] if absent) in reversed hash order: the
    reverse of {!neighbor_array}.  Allocates a fresh list. *)

val neighbor_array : t -> int -> int array
(** Neighbours in hash-table iteration order — the order
    {!random_neighbor} indexes, memoised per vertex until the next
    mutation of that vertex's edges ([[||]] for absent vertices).  One
    lookup serves both the degree and the pick, which is what the
    random-walk hot loop needs.  The returned array is shared — callers
    must not mutate it. *)

val sorted_neighbors : t -> int -> int array
(** Neighbours in ascending order, memoised per vertex until the next
    mutation of that vertex's edges.  The returned array is shared —
    callers must not mutate it. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Apply a function to each neighbour of a vertex, in hash order (the
    {!neighbor_array} order); nothing happens for an absent vertex.
    Allocates nothing. *)

val random_neighbor : t -> Prng.Rng.t -> int -> int option
(** Uniform neighbour of a vertex; [None] for isolated/absent vertices. *)

val vertices : t -> int list
(** Every vertex, in reversed hash order (not sorted).  Allocates. *)

val iter_vertices : t -> (int -> unit) -> unit
(** Apply a function to every vertex, in hash order (not sorted). *)

val n_vertices : t -> int
(** Number of vertices, isolated ones included — O(1). *)

val n_edges : t -> int
(** Number of undirected edges, each counted once — O(1). *)

val max_degree : t -> int
(** Largest vertex degree; 0 for the empty graph.  O(#vertices). *)

val min_degree : t -> int
(** Smallest vertex degree; 0 for the empty graph.  O(#vertices). *)

val mean_degree : t -> float
(** [2 * n_edges / n_vertices]; 0.0 for the empty graph. *)

val copy : t -> t
(** An independent graph with the same vertices and edges.  Its version
    and its hash orders may differ from the original's, so readers that
    depend on either must not assume they carry over. *)

val edges : t -> (int * int) list
(** Each undirected edge once, with [u < v], in hash order (not sorted).
    Allocates one pair per edge. *)

val iter_sorted_edges : t -> (int -> int -> unit) -> unit
(** [iter_sorted_edges g f] calls [f u v] once per undirected edge, with
    [u < v], in ascending lexicographic order of [(u, v)] — the sequence
    [List.sort compare (edges g)] lists.  It walks the vertices in
    ascending order through their memoised {!sorted_neighbors}, so no
    list of pairs is built or sorted; the canonical order the audit
    digest and the snapshot writer fold. *)
