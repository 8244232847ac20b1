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

(* ---------- digest oracle ----------

   [Digest_of.view] as it stood when every canonical order came from
   [List.sort compare]: cluster ids, each member list and the overlay's
   edge list sorted, then folded.  Both engines digest through the same
   [Digest_of] code, so only an independent oracle can check how that
   code produces its order. *)

module Fnv = Audit.Fnv
module View = Now_core.View

let oracle_view (v : View.t) =
  let fold_members h cid members =
    let h = Fnv.int h cid in
    let h = List.fold_left Fnv.int h (List.sort compare members) in
    Fnv.int h (-1)
  in
  let table =
    List.fold_left
      (fun h (cid, members) -> fold_members h cid members)
      Fnv.init
      (List.sort
         (fun (a, _) (b, _) -> compare a b)
         (List.map (fun cid -> (cid, v.View.members cid)) (v.View.cluster_ids ())))
  in
  let honesty = ref Fnv.init in
  for id = 0 to v.View.total_allocated () - 1 do
    let mark = match v.View.honesty id with Node.Honest -> 0 | Node.Byzantine -> 1 in
    let present = if v.View.is_present id then 2 else 0 in
    honesty := Fnv.int !honesty (mark lor present)
  done;
  let g = v.View.graph () in
  let overlay =
    List.fold_left
      (fun h (u, w) -> Fnv.int (Fnv.int h u) w)
      (Fnv.int (Fnv.int Fnv.init (Dsgraph.Graph.version g)) (Dsgraph.Graph.n_vertices g))
      (List.sort compare (Dsgraph.Graph.edges g))
  in
  let rng =
    List.fold_left
      (fun h (name, state) -> Fnv.int64 (Fnv.string h name) state)
      Fnv.init
      (List.sort (fun (a, _) (b, _) -> String.compare a b) (v.View.rng_cursors ()))
  in
  let ledger =
    List.fold_left
      (fun h (label, messages, rounds) ->
        Fnv.int (Fnv.int (Fnv.string h label) messages) rounds)
      Fnv.init
      (List.sort compare (Metrics.Ledger.labels (v.View.ledger ())))
  in
  [
    ("honesty", !honesty);
    ("ledger", ledger);
    ("overlay", overlay);
    ("rng", rng);
    ("table", table);
  ]

let matches_oracle v = Digest_of.view v = oracle_view v

(* Leave-heavy scripts on a small system, so clusters fall below the
   minimum size and merge; under [Rejoin_self] the dissolved members sit
   in the pending queue until the next operation, so checking after every
   operation digests frames with homeless present nodes. *)
let prop_digest_matches_oracle =
  QCheck.Test.make ~name:"Digest_of.view = sort-based oracle after every op"
    ~count:16
    QCheck.(triple bool small_int (list_of_size (QCheck.Gen.int_range 20 80) small_int))
    (fun (rejoin, seed, script) ->
      let p =
        Params.make ~n_max:(1 lsl 8) ~k:3 ~tau:0.15 ~walk_mode:Params.Direct_sample
          ~merge_policy:
            (if rejoin then Params.Rejoin_self else Params.Absorb_random_victim)
          ()
      in
      let a = Engine.create ~seed:(Int64.of_int seed) p ~initial:(initial seed) in
      let b = Engine_ref.create ~seed:(Int64.of_int seed) p ~initial:(initial seed) in
      List.for_all
        (fun op ->
          (match op mod 8 with
          | 0 ->
            ignore (Engine.join a Node.Honest);
            ignore (Engine_ref.join b Node.Honest)
          | 1 ->
            ignore (Engine.join a Node.Byzantine);
            ignore (Engine_ref.join b Node.Byzantine)
          | 6 ->
            ignore (Engine.exchange_epoch a);
            ignore (Engine_ref.exchange_epoch b)
          | _ ->
            if Engine.n_nodes a > 40 then begin
              ignore (Engine.leave a (Engine.random_node a));
              ignore (Engine_ref.leave b (Engine_ref.random_node b))
            end);
          matches_oracle (Engine.view a) && matches_oracle (Engine_ref.view b))
        script)

(* The property above reaches pending re-joins only when a script happens
   to drive a cluster below the minimum; this pins one frame that does. *)
let test_digest_oracle_pending_rejoin () =
  let p =
    Params.make ~n_max:(1 lsl 8) ~k:3 ~tau:0.15 ~walk_mode:Params.Direct_sample
      ~merge_policy:Params.Rejoin_self ()
  in
  let e = Engine.create ~seed:3L p ~initial:(initial 3) in
  let checked = ref 0 in
  while !checked = 0 && Engine.n_nodes e > 40 do
    ignore (Engine.leave e (Engine.random_node e));
    if (Engine.view e).View.pending_rejoin () <> [] then begin
      incr checked;
      Alcotest.(check bool) "digest = oracle with pending re-joins" true
        (matches_oracle (Engine.view e))
    end
  done;
  Alcotest.(check int) "a frame with pending re-joins was digested" 1 !checked

let suite =
  [
    QCheck_alcotest.to_alcotest prop_script_equivalence;
    QCheck_alcotest.to_alcotest prop_script_equivalence_split_merge;
    QCheck_alcotest.to_alcotest prop_epoch_digest_stream;
    QCheck_alcotest.to_alcotest prop_epoch_jobs_identity;
    QCheck_alcotest.to_alcotest prop_epoch_zero_perturbation;
    QCheck_alcotest.to_alcotest prop_snapshot_cross_load;
    QCheck_alcotest.to_alcotest prop_digest_matches_oracle;
    Alcotest.test_case "digest oracle with pending re-joins" `Quick
      test_digest_oracle_pending_rejoin;
  ]
