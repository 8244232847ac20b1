module Config = Cluster.Config
module Ops = Cluster.Ops
module Walk = Cluster.Walk
module Randnum = Cluster.Randnum
module Valchan = Cluster.Valchan
module Exchange = Cluster.Exchange
module Rng = Prng.Rng
module Ledger = Metrics.Ledger

let kind = "msg"

type t = {
  spec : Spec.t;
  labels : (string * string) list;
  cfg : Config.t;
  prims : Walk.leaves;  (* the leaves the primitive drives run on *)
  rng : Rng.t;
  behavior : (int -> Agreement.Byz_behavior.t) option;
  target : int;  (* population at creation: the churn band's reference *)
  max_limit : int;
  min_limit : int;
  overlay_edges : int;
  mutable next_node : int;
  mutable next_cid : int;
  hist : int array;
  mutable steps : int;
  mutable joins : int;
  mutable leaves : int;
  mutable splits : int;
  mutable merges : int;
  mutable churn_failures : int;
  mutable majority_violations : int;
  mutable min_size : int;
  mutable max_size : int;
  mutable min_honest : float;
  mutable walks_ok : int;
  mutable walks_failed : int;
  mutable walk_retries : int;
  mutable walk_misblamed : int;
  mutable randnum_stalls : int;
  mutable randnum_insecure : int;
  mutable valchan_accepted : int;
  mutable valchan_forged : int;
  mutable valchan_rejected : int;
  mutable exchanges : int;
}

let supports (spec : Spec.t) =
  match spec.churn with
  | Spec.Strategy (Adversary.Target_cluster | Adversary.Dos_honest) ->
    Error
      (Printf.sprintf
         "scenario %S: the %s strategy needs state-level corruption \
          placement and is not supported by the message-level driver \
          (use --engine state)"
         spec.name (Spec.churn_name spec.churn))
  | _ -> Ok ()

let behavior_fn (spec : Spec.t) =
  match spec.behavior with
  | None -> None
  | Some name -> (
    match Adversary.Behavior.of_name name with
    | Error msg -> invalid_arg ("scenario: " ^ msg)
    | Ok _ ->
      Some
        (fun node ->
          match Adversary.Behavior.of_name ~seed:(node + 1) name with
          | Ok b -> b
          | Error _ -> assert false))

let of_config ?leaves ~rng ?(labels = []) (spec : Spec.t) cfg =
  (match supports spec with Ok () -> () | Error msg -> invalid_arg msg);
  {
    spec;
    labels;
    cfg;
    prims = (match leaves with Some l -> l | None -> Walk.sync cfg);
    rng;
    behavior = behavior_fn spec;
    target = Config.n_nodes cfg;
    max_limit = spec.cluster_size + (spec.cluster_size / 2);
    min_limit = max 2 (2 * spec.cluster_size / 3);
    overlay_edges = max 3 (2 * int_of_float (Spec.log2i spec.n_clusters));
    next_node = 1_000_000;
    next_cid = 1_000;
    hist = Array.make (max 1 spec.randnum_range) 0;
    steps = 0;
    joins = 0;
    leaves = 0;
    splits = 0;
    merges = 0;
    churn_failures = 0;
    majority_violations = 0;
    min_size = max_int;
    max_size = 0;
    min_honest = 1.0;
    walks_ok = 0;
    walks_failed = 0;
    walk_retries = 0;
    walk_misblamed = 0;
    randnum_stalls = 0;
    randnum_insecure = 0;
    valchan_accepted = 0;
    valchan_rejected = 0;
    valchan_forged = 0;
    exchanges = 0;
  }

let build ~rng (spec : Spec.t) =
  Config.build_uniform ~rng ~ledger:(Ledger.create ()) ?behavior:(behavior_fn spec)
    ~n_clusters:spec.n_clusters ~cluster_size:spec.cluster_size
    ~byz_per_cluster:(Spec.byz_count spec) ~overlay_degree:spec.overlay_degree ()

let of_rng ~rng ?labels spec = of_config ~rng ?labels spec (build ~rng spec)

let create ~seed ?labels spec = of_rng ~rng:(Rng.create seed) ?labels spec

let create_cell ~seed ~cell ?labels spec =
  of_rng ~rng:(Rng.of_int (seed + (401 * (cell + 1)))) ?labels spec

let config t = t.cfg
let rng t = t.rng
let ledger t = Config.ledger t.cfg
let randnum_hist t = Array.copy t.hist
let labels t = t.labels
let label t = kind ^ ":" ^ t.spec.name

let ids t = Array.of_list (Config.cluster_ids t.cfg)

let byz_total t =
  List.fold_left
    (fun acc cid -> acc + Config.byz_count t.cfg cid)
    0 (Config.cluster_ids t.cfg)

(* Stationary corruption of arrivals: each joiner is corrupted with
   probability [tau], capped by the global [tau] budget (and only when
   the spec names a behaviour for corrupted nodes to run).  A Bernoulli
   draw rather than the state-level Adversary's greedy fill: greedy
   corrupts a solid prefix of arrivals, which at message-level cluster
   sizes (~12) reliably concentrates a cluster past 1/3 corrupted —
   exactly the burst the paper's stationary-adversary experiments (E12)
   do not model.  The draw happens only when a behaviour is configured,
   so behaviour-free scenarios keep an untouched stream. *)
let joiner_behavior t node =
  match t.behavior with
  | None -> None
  | Some beh ->
    let n = Config.n_nodes t.cfg in
    let byz = byz_total t in
    if
      float_of_int (byz + 1) <= t.spec.tau *. float_of_int (n + 1)
      && Rng.bernoulli t.rng t.spec.tau
    then Some (beh node)
    else None

let join t =
  t.next_node <- t.next_node + 1;
  let node = t.next_node in
  let byzantine = joiner_behavior t node in
  let contact = Rng.pick t.rng (ids t) in
  match Ops.join t.cfg ?byzantine ~node ~contact () with
  | Error _ -> t.churn_failures <- t.churn_failures + 1
  | Ok host ->
    t.joins <- t.joins + 1;
    if Config.size t.cfg host > t.max_limit then begin
      t.next_cid <- t.next_cid + 1;
      match
        Ops.split t.cfg ~cluster:host ~fresh_cid:t.next_cid
          ~overlay_edges:t.overlay_edges
      with
      | Ok _ -> t.splits <- t.splits + 1
      | Error _ -> t.churn_failures <- t.churn_failures + 1
    end

let leave t =
  let cid = Rng.pick t.rng (ids t) in
  let node = Rng.pick t.rng (Array.of_list (Config.members t.cfg cid)) in
  match Ops.leave t.cfg ~node () with
  | Error _ -> t.churn_failures <- t.churn_failures + 1
  | Ok _ ->
    t.leaves <- t.leaves + 1;
    if
      Config.size t.cfg cid < t.min_limit
      && List.length (Config.cluster_ids t.cfg) > 1
    then begin
      match Ops.merge t.cfg ~cluster:cid with
      | Ok _ -> t.merges <- t.merges + 1
      | Error `Too_many_restarts -> ()
      | Error _ -> t.churn_failures <- t.churn_failures + 1
    end

let churn_step t ~time =
  match t.spec.churn with
  | Spec.Static -> ()
  | Spec.Paired ->
    join t;
    leave t
  | Spec.Strategy (Adversary.Random_churn p) ->
    let n = Config.n_nodes t.cfg in
    let grow =
      if n <= t.target - 10 then true
      else if n >= t.target + 10 then false
      else Rng.bernoulli t.rng p
    in
    if grow then join t else leave t
  | Spec.Strategy (Adversary.Grow_shrink period) ->
    if time / max 1 period mod 2 = 0 then join t else leave t
  | Spec.Strategy (Adversary.Ambient w) -> (
    match
      Adversary.Workload.plan w t.rng ~step:time ~n:(Config.n_nodes t.cfg)
        ~n0:t.target
    with
    | Adversary.Workload.Join -> join t
    | Adversary.Workload.Leave -> leave t)
  | Spec.Strategy (Adversary.Target_cluster | Adversary.Dos_honest) ->
    assert false (* rejected by [supports] at construction *)

let walk_once t ~time =
  let ids = ids t in
  let start = ids.(time mod Array.length ids) in
  match fst (Walk.rand_cl_on t.prims ?duration:t.spec.walk_duration t.cfg ~start) with
  | Ok s ->
    t.walks_ok <- t.walks_ok + 1;
    t.walk_retries <- t.walk_retries + s.Walk.hop_retries;
    Monitor.maybe_count ~series:"walk.retry" ~labels:t.labels ~time
      s.Walk.hop_retries
  | Error err ->
    t.walks_failed <- t.walks_failed + 1;
    (match err with
    | `Validation_failed c ->
      if not (List.mem c (Config.cluster_ids t.cfg)) then
        t.walk_misblamed <- t.walk_misblamed + 1
    | `Too_many_restarts -> ());
    Monitor.maybe_count ~series:"walk.failed" ~labels:t.labels ~time 1

let randnum_once t ~time =
  let ids = ids t in
  let cluster = ids.(time mod Array.length ids) in
  let o, _ = t.prims.randnum ~cluster ~range:t.spec.randnum_range in
  if o.Randnum.value >= 0 && o.Randnum.value < Array.length t.hist then
    t.hist.(o.Randnum.value) <- t.hist.(o.Randnum.value) + 1;
  if o.Randnum.stalled then begin
    t.randnum_stalls <- t.randnum_stalls + 1;
    Monitor.maybe_count ~series:"randnum.stall" ~labels:t.labels ~time 1
  end;
  if not o.Randnum.secure then t.randnum_insecure <- t.randnum_insecure + 1

let valchan_once t ~time =
  let src, dst =
    match t.spec.valchan_route with
    | Some (src, dst) -> (src, dst)
    | None ->
      let ids = ids t in
      let n = Array.length ids in
      (ids.(time mod n), ids.((time + 1) mod n))
  in
  let payload = 1 + Rng.int t.rng 1_000 in
  let res, _ =
    t.prims.transmit ~src_cluster:src ~dst_cluster:dst ~label:"valchan" ~payload
  in
  let forged =
    List.exists
      (fun (_, v) -> match v with Some v -> v <> payload | None -> false)
      res.Valchan.verdicts
  in
  if forged then begin
    t.valchan_forged <- t.valchan_forged + 1;
    Monitor.maybe_count ~series:"valchan.forged" ~labels:t.labels ~time 1
  end
  else if res.Valchan.unanimous = Some payload then
    t.valchan_accepted <- t.valchan_accepted + 1
  else t.valchan_rejected <- t.valchan_rejected + 1

let exchange t =
  let ids = ids t in
  match fst (Exchange.exchange_all_on t.prims t.cfg ~cluster:ids.(0)) with
  | Ok _ ->
    t.exchanges <- t.exchanges + 1;
    true
  | Error _ -> false

let scan t =
  List.iter
    (fun cid ->
      let s = Config.size t.cfg cid in
      if s < t.min_size then t.min_size <- s;
      if s > t.max_size then t.max_size <- s;
      if not (Config.honest_majority t.cfg cid) then
        t.majority_violations <- t.majority_violations + 1;
      let hf = Config.honest_fraction t.cfg cid in
      if hf < t.min_honest then t.min_honest <- hf)
    (Config.cluster_ids t.cfg)

let advance t ~time =
  churn_step t ~time;
  if t.spec.drive.Spec.walks then walk_once t ~time;
  if t.spec.drive.Spec.randnum then randnum_once t ~time;
  if t.spec.drive.Spec.valchan then valchan_once t ~time;
  (match t.spec.drive.Spec.exchange_every with
  | Some k when k > 0 && time mod k = 0 -> ignore (exchange t)
  | _ -> ());
  scan t;
  t.steps <- t.steps + 1

let step t ~time =
  advance t ~time;
  (* Post-step digest frame; read-only, see State_driver.step. *)
  Audit.maybe_record_config ~labels:t.labels ~step:time t.cfg

let sample t ~time =
  Monitor.maybe_sample_config ~labels:t.labels
    ~degree_bound:(2 * t.spec.overlay_degree) ~time t.cfg

let stats t =
  {
    Driver.Stats.zero with
    steps = t.steps;
    joins = t.joins;
    leaves = t.leaves;
    splits = t.splits;
    merges = t.merges;
    churn_failures = t.churn_failures;
    n_nodes = Config.n_nodes t.cfg;
    n_clusters = List.length (Config.cluster_ids t.cfg);
    min_honest_fraction = t.min_honest;
    majority_violations = t.majority_violations;
    min_size = (if t.min_size = max_int then 0 else t.min_size);
    max_size = t.max_size;
    walks_ok = t.walks_ok;
    walks_failed = t.walks_failed;
    walk_retries = t.walk_retries;
    walk_misblamed = t.walk_misblamed;
    randnum_stalls = t.randnum_stalls;
    randnum_insecure = t.randnum_insecure;
    valchan_accepted = t.valchan_accepted;
    valchan_forged = t.valchan_forged;
    valchan_rejected = t.valchan_rejected;
    exchanges = t.exchanges;
    messages = Ledger.total_messages (Config.ledger t.cfg);
    rounds = Ledger.total_rounds (Config.ledger t.cfg);
  }
