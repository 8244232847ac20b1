(** Expansion / isoperimetric-constant measurement.

    The paper's Property 1 asserts that the OVER overlay keeps the
    isoperimetric constant [I(G)] — the minimum over vertex sets S of at
    most half the vertices of (boundary edges of S) / (size of S) — large.
    Computing [I(G)] exactly is NP-hard, so three estimators are provided:

    - {!exact}: exhaustive subset enumeration, for graphs with up to ~24
      vertices (used in tests as ground truth);
    - {!spectral_lower}: the algebraic connectivity bound
      [I(G) >= mu2 / 2] where [mu2] is the second-smallest Laplacian
      eigenvalue (computed by power iteration with deflation);
    - {!sweep_upper}: a Fiedler-vector sweep cut, giving a certified upper
      bound (an actual cut achieving that ratio).

    E4 reports the bracket [spectral_lower <= I(G) <= sweep_upper]. *)

val exact : Graph.t -> float
(** Exhaustive minimum over all non-empty S with [|S| <= n/2].  Raises
    [Invalid_argument] for graphs with more than 24 vertices.  [infinity]
    for graphs with fewer than 2 vertices. *)

val spectral_lower : ?iterations:int -> Graph.t -> float
(** [mu2 / 2]: a lower bound on [I(G)] (0 for disconnected graphs), where
    [mu2] is the second-smallest eigenvalue of the (combinatorial)
    Laplacian, found by power iteration on [c.I - L] with deflation of
    the constant vector; [iterations] defaults to 2000. *)

val sweep_upper : ?iterations:int -> Graph.t -> float
(** Best prefix-cut ratio along the Fiedler order — an upper bound on
    [I(G)].  [infinity] for graphs with fewer than 2 vertices. *)
