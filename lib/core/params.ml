type merge_policy = Absorb_random_victim | Rejoin_self

type walk_mode = Exact_walk | Direct_sample

type t = {
  n_max : int;
  k : int;
  l : float;
  tau : float;
  epsilon : float;
  overlay_c : float;
  overlay_alpha : float;
  walk_duration_c : float;
  walk_mode : walk_mode;
  merge_policy : merge_policy;
  shuffle_on_churn : bool;
  allow_split_merge : bool;
}

let make ?(k = 8) ?(l = 1.5) ?(tau = 0.15) ?(epsilon = 0.1) ?(overlay_c = 2.0)
    ?(overlay_alpha = 0.25) ?(walk_duration_c = 2.0) ?(walk_mode = Exact_walk)
    ?(merge_policy = Absorb_random_victim) ?(shuffle_on_churn = true)
    ?(allow_split_merge = true) ~n_max () =
  if n_max < 16 then invalid_arg "Params.make: n_max must be at least 16";
  if k < 1 then invalid_arg "Params.make: k must be at least 1";
  if l <= sqrt 2.0 then invalid_arg "Params.make: l must exceed sqrt 2";
  if tau < 0.0 then invalid_arg "Params.make: tau must be non-negative";
  if epsilon <= 0.0 then invalid_arg "Params.make: epsilon must be positive";
  (* The base theorem wants tau (1+eps) < 1/3; Remarks 1-2 relax the
     adversary to tau < 1/r - eps for r >= 2 (with cryptographic broadcast
     for r = 2).  The hard limit here is the validated channels' honest
     majority: tau (1+eps) must stay below 1/2. *)
  if tau *. (1.0 +. epsilon) >= 0.5 then
    invalid_arg "Params.make: need tau * (1 + epsilon) < 1/2";
  if overlay_c <= 0.0 || overlay_alpha < 0.0 then
    invalid_arg "Params.make: overlay parameters must be positive";
  if walk_duration_c <= 0.0 then
    invalid_arg "Params.make: walk_duration_c must be positive";
  {
    n_max;
    k;
    l;
    tau;
    epsilon;
    overlay_c;
    overlay_alpha;
    walk_duration_c;
    walk_mode;
    merge_policy;
    shuffle_on_churn;
    allow_split_merge;
  }

let default = make ~n_max:(1 lsl 14) ()

let log2_n_max t = log (float_of_int t.n_max) /. log 2.0

let log2_n_max_int t = int_of_float (ceil (log2_n_max t))

let target_cluster_size t = t.k * log2_n_max_int t

let max_cluster_size t =
  int_of_float (floor (t.l *. float_of_int (target_cluster_size t)))

let min_cluster_size t =
  int_of_float (ceil (float_of_int (target_cluster_size t) /. t.l))

let overlay_target_degree t ~n_clusters =
  if n_clusters <= 1 then 0
  else begin
    let by_formula =
      int_of_float (ceil (t.overlay_c *. (log2_n_max t ** (1.0 +. t.overlay_alpha))))
    in
    let d = min (n_clusters - 1) by_formula in
    if n_clusters >= 3 then max 2 d else d
  end

let min_network_size t = int_of_float (ceil (sqrt (float_of_int t.n_max)))

let pp ppf t =
  Format.fprintf ppf
    "N=%d k=%d l=%.2f tau=%.3f eps=%.3f cluster[%d..%d] target=%d d_overlay~%d"
    t.n_max t.k t.l t.tau t.epsilon (min_cluster_size t) (max_cluster_size t)
    (target_cluster_size t)
    (overlay_target_degree t ~n_clusters:max_int)
