(* Representation equivalence: the flat-arena engine ([Now_core.Engine],
   backed by [Cluster_table]'s struct-of-arrays slab) against the
   record-based oracle ([Now_core.Engine_reference], backed by
   [Cluster_table_reference]).  Both are instances of the same
   [Engine_impl.Make] functor, so any observable divergence is a
   representation bug: identical seeded operation scripts must produce
   identical [save] bytes, [cluster_stats] and flight-recorder digests
   ([Audit.Digest_of.view] over [Engine.view]). *)

module Engine = Now_core.Engine
module Engine_ref = Now_core.Engine_reference
module Params = Now_core.Params
module Node = Now_core.Node
module Rng = Prng.Rng
module Digest_of = Audit.Digest_of

let params ?(split_merge = false) () =
  Params.make ~n_max:(1 lsl 10) ~k:3 ~tau:0.15 ~walk_mode:Params.Direct_sample
    ~allow_split_merge:split_merge ()

let initial seed =
  let rng = Rng.create (Int64.of_int seed) in
  List.init 250 (fun _ ->
      if Rng.bernoulli rng 0.15 then Node.Byzantine else Node.Honest)

(* Twin engines from one seed: both follow the same RNG trajectory. *)
let twins ?split_merge seed =
  let p = params ?split_merge () in
  ( Engine.create ~seed:(Int64.of_int seed) p ~initial:(initial seed),
    Engine_ref.create ~seed:(Int64.of_int seed) p ~initial:(initial seed) )

(* The fields of an operation report, so the two engines' distinct
   [op_report] types compare field by field: [save]'s ledger only sums
   message and round charges, so the critical-path [rounds], [walks],
   [walk_hops] and [rejoins] are checked here. *)
let fields (r : Engine.op_report) =
  [ r.messages; r.rounds; r.splits; r.merges; r.walks; r.walk_hops; r.rejoins ]

let fields_ref (r : Engine_ref.op_report) =
  [ r.messages; r.rounds; r.splits; r.merges; r.walks; r.walk_hops; r.rejoins ]

let same_report ra rb = fields ra = fields_ref rb

(* An operation script is a list of small ints; the same decision is
   applied to both engines, and the two reports must agree.  Leaves pick
   the victim through each engine's own [random_node] — same trajectory,
   same victim. *)
let apply_op a b op =
  match op mod 5 with
  | 0 ->
    let ida, ra = Engine.join a Node.Honest in
    let idb, rb = Engine_ref.join b Node.Honest in
    ida = idb && same_report ra rb
  | 1 ->
    let ida, ra = Engine.join a Node.Byzantine in
    let idb, rb = Engine_ref.join b Node.Byzantine in
    ida = idb && same_report ra rb
  | 2 ->
    if Engine.n_nodes a > 60 then
      same_report
        (Engine.leave a (Engine.random_node a))
        (Engine_ref.leave b (Engine_ref.random_node b))
    else true
  | 3 ->
    (* Exchange the same cluster on both sides: pick by rank in the
       sorted id list, which is identical if the states are. *)
    let ids_a = List.sort compare (Now_core.Cluster_table.cluster_ids (Engine.table a)) in
    let ids_b =
      List.sort compare
        (Now_core.Cluster_table_reference.cluster_ids (Engine_ref.table b))
    in
    let rank = op mod List.length ids_a in
    same_report
      (Engine.exchange_cluster a (List.nth ids_a rank))
      (Engine_ref.exchange_cluster b (List.nth ids_b rank))
  | _ -> same_report (Engine.exchange_epoch a) (Engine_ref.exchange_epoch b)

let agree a b =
  Engine.save a = Engine_ref.save b
  && Engine.cluster_stats a = Engine_ref.cluster_stats b
  && Digest_of.view (Engine.view a) = Digest_of.view (Engine_ref.view b)

let prop_script_equivalence =
  QCheck.Test.make
    ~name:"arena engine = reference engine on any churn+exchange script"
    ~count:12
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 30) small_int))
    (fun (seed, script) ->
      let a, b = twins seed in
      let reports_agree = List.for_all (apply_op a b) script in
      Engine.check_invariants a;
      reports_agree && agree a b)

let prop_script_equivalence_split_merge =
  QCheck.Test.make
    ~name:"arena = reference with split/merge enabled" ~count:8
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 30) small_int))
    (fun (seed, script) ->
      let a, b = twins ~split_merge:true seed in
      List.for_all (apply_op a b) script && agree a b)

let prop_epoch_digest_stream =
  QCheck.Test.make
    ~name:"digest streams agree after every sharded epoch" ~count:6
    QCheck.small_int
    (fun seed ->
      let a, b = twins seed in
      let ok = ref true in
      for _ = 1 to 4 do
        let ra = Engine.exchange_epoch a and rb = Engine_ref.exchange_epoch b in
        if not (same_report ra rb && agree a b) then ok := false
      done;
      !ok)

(* The sharded epoch must be scheduling-blind: the same engine state
   advanced under 1 worker and under 4 yields the same bytes. *)
let prop_epoch_jobs_identity =
  QCheck.Test.make ~name:"exchange_epoch bytes identical for -j1 and -j4"
    ~count:6 QCheck.small_int
    (fun seed ->
      let saved = Exec.default_jobs () in
      Fun.protect
        ~finally:(fun () -> Exec.set_default_jobs saved)
        (fun () ->
          let run jobs =
            Exec.set_default_jobs jobs;
            let p = params () in
            let e = Engine.create ~seed:(Int64.of_int seed) p ~initial:(initial seed) in
            ignore (Engine.exchange_epoch e);
            ignore (Engine.exchange_epoch e);
            (Engine.save e, Digest_of.view (Engine.view e))
          in
          run 1 = run 4))

(* Zero-perturbation through the sharded path: sampling the monitor
   probes and folding audit digests between epochs must not change a
   byte of the trajectory. *)
let prop_epoch_zero_perturbation =
  QCheck.Test.make
    ~name:"probes + digests between epochs perturb nothing" ~count:6
    QCheck.small_int
    (fun seed ->
      let run ~observed =
        let p = params () in
        let e = Engine.create ~seed:(Int64.of_int seed) p ~initial:(initial seed) in
        let store = Monitor.Store.create () in
        for t = 1 to 3 do
          if observed then begin
            Monitor.Probe.sample_view store ~time:t (Engine.view e);
            ignore (Digest_of.view (Engine.view e))
          end;
          ignore (Engine.exchange_epoch e);
          ignore (Engine.join e Node.Honest);
          ignore (Engine.leave e (Engine.random_node e))
        done;
        Engine.save e
      in
      run ~observed:true = run ~observed:false)

(* Snapshot interchange: a snapshot taken on one representation loads
   on the other ([View.save] is representation-free). *)
let prop_snapshot_cross_load =
  QCheck.Test.make ~name:"snapshots roundtrip across representations"
    ~count:8 QCheck.small_int
    (fun seed ->
      let a, b = twins seed in
      ignore (Engine.exchange_epoch a);
      ignore (Engine_ref.exchange_epoch b);
      let s = Engine.save a in
      Engine_ref.save (Engine_ref.load s) = s
      && Engine.save (Engine.load (Engine_ref.save b)) = s)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_script_equivalence;
    QCheck_alcotest.to_alcotest prop_script_equivalence_split_merge;
    QCheck_alcotest.to_alcotest prop_epoch_digest_stream;
    QCheck_alcotest.to_alcotest prop_epoch_jobs_identity;
    QCheck_alcotest.to_alcotest prop_epoch_zero_perturbation;
    QCheck_alcotest.to_alcotest prop_snapshot_cross_load;
  ]
