module Stats = struct
  type t = {
    steps : int;
    joins : int;
    leaves : int;
    splits : int;
    merges : int;
    churn_failures : int;
    n_nodes : int;
    n_clusters : int;
    min_honest_fraction : float;
    target_byz_fraction : float;
    violations_now : int;
    violation_events : int;
    majority_violations : int;
    min_size : int;
    max_size : int;
    walks_ok : int;
    walks_failed : int;
    walk_retries : int;
    walk_misblamed : int;
    randnum_stalls : int;
    randnum_insecure : int;
    valchan_accepted : int;
    valchan_forged : int;
    valchan_rejected : int;
    exchanges : int;
    messages : int;
    rounds : int;
    virtual_time : float;
    session_timeouts : int;
    lat_p99 : float;
  }

  let zero =
    {
      steps = 0;
      joins = 0;
      leaves = 0;
      splits = 0;
      merges = 0;
      churn_failures = 0;
      n_nodes = 0;
      n_clusters = 0;
      min_honest_fraction = 1.0;
      target_byz_fraction = 0.0;
      violations_now = 0;
      violation_events = 0;
      majority_violations = 0;
      min_size = 0;
      max_size = 0;
      walks_ok = 0;
      walks_failed = 0;
      walk_retries = 0;
      walk_misblamed = 0;
      randnum_stalls = 0;
      randnum_insecure = 0;
      valchan_accepted = 0;
      valchan_forged = 0;
      valchan_rejected = 0;
      exchanges = 0;
      messages = 0;
      rounds = 0;
      virtual_time = 0.0;
      session_timeouts = 0;
      lat_p99 = 0.0;
    }

  let summary s =
    let base =
      Printf.sprintf
        "n=%d #C=%d joins=%d leaves=%d splits=%d merges=%d churn-fail=%d \
         min-honest=%.3f viol=%d msgs=%d"
        s.n_nodes s.n_clusters s.joins s.leaves s.splits s.merges
        s.churn_failures s.min_honest_fraction
        (s.violations_now + s.majority_violations)
        s.messages
    in
    (* Virtual time only exists on the asynchronous engine; synchronous
       summaries keep their historical byte-exact shape. *)
    if s.virtual_time = 0.0 && s.session_timeouts = 0 then base
    else
      Printf.sprintf "%s vt=%.3f timeouts=%d lat_p99=%.3f" base s.virtual_time
        s.session_timeouts s.lat_p99
end

module type S = sig
  type t

  val supports : Spec.t -> (unit, string) result

  val create_cell :
    seed:int -> cell:int -> ?labels:(string * string) list -> Spec.t -> t

  val label : t -> string
  val step : t -> time:int -> unit
  val sample : t -> time:int -> unit
  val stats : t -> Stats.t
end
