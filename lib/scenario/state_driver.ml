module Engine = Now_core.Engine
module Node = Now_core.Node
module Params = Now_core.Params
module Rng = Prng.Rng
module Ledger = Metrics.Ledger

let kind = "state"

type t = {
  spec : Spec.t;
  labels : (string * string) list;
  engine : Engine.t;
  adversary : Adversary.t option;
  mutable steps : int;
  mutable joins : int;
  mutable leaves : int;
  mutable min_honest : float;
}

let initial_population rng ~n ~tau =
  let byz = int_of_float (tau *. float_of_int n) in
  let arr =
    Array.init n (fun i -> if i < byz then Node.Byzantine else Node.Honest)
  in
  Rng.shuffle_in_place rng arr;
  Array.to_list arr

let build_engine ~pop_rng ~engine_seed (spec : Spec.t) =
  let params =
    Params.make ~k:spec.k ~tau:spec.tau
      ~walk_mode:(if spec.exact_walk then Params.Exact_walk else Params.Direct_sample)
      ~shuffle_on_churn:spec.shuffle ~allow_split_merge:spec.split_merge
      ~n_max:spec.n_max ()
  in
  let initial = initial_population pop_rng ~n:spec.n0 ~tau:spec.tau in
  Engine.create ~seed:engine_seed params ~initial

let make ~engine ~adv_seed ?(labels = []) (spec : Spec.t) =
  let adversary =
    match spec.churn with
    | Spec.Strategy strategy ->
      Some (Adversary.create ~seed:adv_seed ~tau:spec.tau ~strategy engine)
    | Spec.Static | Spec.Paired -> None
  in
  {
    spec;
    labels;
    engine;
    adversary;
    steps = 0;
    joins = 0;
    leaves = 0;
    min_honest = Engine.min_honest_fraction engine;
  }

let supports (_ : Spec.t) = Ok ()

let create ~seed ?labels (spec : Spec.t) =
  let pop_rng = Rng.create (Int64.add seed 11L) in
  let engine = build_engine ~pop_rng ~engine_seed:seed spec in
  make ~engine ~adv_seed:seed ?labels spec

let create_cell ~seed ~cell ?labels (spec : Spec.t) =
  let cell_seed = seed + (101 * (cell + 1)) in
  let pop_rng = Rng.of_int (cell_seed + 1) in
  let engine =
    build_engine ~pop_rng ~engine_seed:(Int64.of_int cell_seed) spec
  in
  make ~engine ~adv_seed:(Int64.of_int (cell_seed + 7)) ?labels spec

let engine t = t.engine
let ledger t = Engine.ledger t.engine
let label t = kind ^ ":" ^ t.spec.name

let join t =
  let _, r = Engine.join t.engine Node.Honest in
  t.joins <- t.joins + 1;
  r

let leave t =
  let r = Engine.leave t.engine (Engine.random_node t.engine) in
  t.leaves <- t.leaves + 1;
  r

let step t ~time =
  (match (t.spec.churn, t.adversary) with
  | Spec.Static, _ -> ()
  | Spec.Paired, _ ->
    ignore (join t);
    ignore (leave t)
  | Spec.Strategy _, Some adv -> Adversary.step adv
  | Spec.Strategy _, None -> assert false);
  t.steps <- t.steps + 1;
  let f = Engine.min_honest_fraction t.engine in
  if f < t.min_honest then t.min_honest <- f;
  (* Post-step digest frame: a read-only fold of the engine state, so an
     installed recorder cannot change the trajectory. *)
  Audit.maybe_record_engine ~labels:t.labels ~step:time t.engine

let sample t ~time =
  Monitor.maybe_sample_engine ~labels:t.labels ~time t.engine

let stats t =
  (* Read through the engine's read-only view: the driver is
     representation-blind, like every other external reader. *)
  let v = Engine.view t.engine in
  let joins, leaves, min_honest, target =
    match t.adversary with
    | Some a ->
      ( Adversary.joins a,
        Adversary.leaves a,
        Adversary.min_honest_fraction_seen a,
        Adversary.target_byz_fraction a )
    | None -> (t.joins, t.leaves, t.min_honest, 0.0)
  in
  let tot = v.Now_core.View.totals () in
  {
    Driver.Stats.zero with
    steps = t.steps;
    joins;
    leaves;
    splits = tot.Now_core.View.total_splits;
    merges = tot.Now_core.View.total_merges;
    n_nodes = v.Now_core.View.n_nodes ();
    n_clusters = v.Now_core.View.n_clusters ();
    min_honest_fraction = min_honest;
    target_byz_fraction = target;
    violations_now = v.Now_core.View.violations_now ();
    violation_events = v.Now_core.View.violation_events ();
    messages = Ledger.total_messages (v.Now_core.View.ledger ());
    rounds = Ledger.total_rounds (v.Now_core.View.ledger ());
  }
