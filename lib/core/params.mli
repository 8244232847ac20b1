(** Protocol parameters for NOW (Section 2 and 3 of the paper).

    Conventions: [n_max] is the name-space bound the paper calls [N]; the
    current network size [n] must stay within [sqrt N, N] (relaxable to
    [N^{1/y}, N^z]).  All logarithms are base 2. *)

type merge_policy =
  | Absorb_random_victim
      (** Section 3.3 semantics: the undersized cluster picks a victim
          cluster with [randCl]; the victim's overlay vertex is removed (a
          {e random} removal, as OVER's analysis assumes) and its members
          are absorbed, after which the merged cluster exchanges all its
          nodes. *)
  | Rejoin_self
      (** Algorithm 2 semantics: the undersized cluster removes its own
          overlay vertex and its members re-join the network through normal
          Join operations on subsequent time steps (Section 4.1). *)

type walk_mode =
  | Exact_walk
      (** [randCl] runs a real biased continuous-time random walk on the
          overlay, hop by hop.  Message/round costs are measured from the
          actual walk. *)
  | Direct_sample
      (** [randCl] samples the target distribution [|C|/n] directly
          (justified by experiment E9, which shows the exact walk attains
          this distribution) and charges the analytic hop count.  Used for
          long polynomial-length runs. *)

type t = {
  n_max : int;  (** N: maximal network size / name-space size; power of 2 recommended *)
  k : int;  (** cluster-size security parameter; target size is [k log2 N] *)
  l : float;  (** split/merge slack; must exceed [sqrt 2] (Section 3.3) *)
  tau : float;  (** fraction of nodes the Byzantine adversary controls *)
  epsilon : float;  (** slack: the analysis needs [tau (1 + epsilon) < 1/3] *)
  overlay_c : float;  (** overlay degree constant: target degree [overlay_c * (log2 N)^{1+overlay_alpha}] *)
  overlay_alpha : float;  (** the paper's (arbitrarily small) constant [alpha > 0] *)
  walk_duration_c : float;  (** CTRW duration multiplier: each walk runs for [walk_duration_c * log2 #C] time units *)
  walk_mode : walk_mode;
  merge_policy : merge_policy;
  shuffle_on_churn : bool;
      (** NOW's defining defence (Section 3.3): run [exchange] on every join
          and leave.  [false] gives the no-shuffle baseline that the
          targeted join-leave attack defeats. *)
  allow_split_merge : bool;
      (** Dynamic cluster count (the paper's headline contribution).
          [false] freezes the initial clusters — the static-#clusters
          baseline whose cluster sizes blow up under polynomial growth. *)
}

val default : t
(** N = 2^14, k = 8, l = 1.5, tau = 0.15, epsilon = 0.1, overlay degree
    [2 (log2 N)^{1.25}], exact walks, absorb-victim merges. *)

val make :
  ?k:int ->
  ?l:float ->
  ?tau:float ->
  ?epsilon:float ->
  ?overlay_c:float ->
  ?overlay_alpha:float ->
  ?walk_duration_c:float ->
  ?walk_mode:walk_mode ->
  ?merge_policy:merge_policy ->
  ?shuffle_on_churn:bool ->
  ?allow_split_merge:bool ->
  n_max:int ->
  unit ->
  t
(** Validates the constraints: [l > sqrt 2], [0 <= tau],
    [tau * (1 + epsilon) < 1/2] (the validated channels' honest-majority
    limit; the base theorem uses [< 1/3], Remarks 1-2 relax it to
    [< 1/r] for [r >= 2]), [n_max >= 16], [k >= 1].
    Raises [Invalid_argument] otherwise. *)

val target_cluster_size : t -> int
(** [k * ceil (log2 N)] — the size of freshly formed clusters. *)

val max_cluster_size : t -> int
(** [l * k * log2 N], the split threshold (exclusive). *)

val min_cluster_size : t -> int
(** [k * log2 N / l], the merge threshold (exclusive). *)

val overlay_target_degree : t -> n_clusters:int -> int
(** [min (n_clusters - 1, overlay_c * (log2 N)^{1+alpha})], at least 2 when
    at least 3 clusters exist. *)

val min_network_size : t -> int
(** [sqrt N] — the lower bound on the current network size. *)

val pp : Format.formatter -> t -> unit
