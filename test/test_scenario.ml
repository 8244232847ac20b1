(* Tests for the scenario layer: workload shape properties, the registry
   and its parameter parsing, and the determinism contracts of both
   drivers (rerun and -j byte-identity, zero perturbation under
   monitoring). *)

module Spec = Scenario.Spec
module Stats = Scenario.Stats
module Workload = Adversary.Workload
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------- workload shape properties ---------- *)

(* Diurnal is deterministic target-chasing: the population never strays
   from the sinusoid band by more than the target's per-step slope. *)
let prop_diurnal_tracks_band =
  QCheck.Test.make ~name:"diurnal population stays in the sinusoid band"
    ~count:60
    QCheck.(pair (int_range 40 400) (float_range 0.0 0.6))
    (fun (period, amplitude) ->
      let w = Workload.Diurnal { period; amplitude } in
      let rng = Rng.of_int (period + 17) in
      let n0 = 300 in
      let n = ref n0 in
      let slack =
        (* max per-step movement of the target, plus the chase lag *)
        3
        + int_of_float
            (float_of_int n0 *. amplitude *. 2.0 *. Float.pi
            /. float_of_int period)
      in
      let lo = int_of_float (float_of_int n0 *. (1.0 -. amplitude)) - slack in
      let hi = int_of_float (float_of_int n0 *. (1.0 +. amplitude)) + slack in
      let ok = ref true in
      for step = 1 to 3 * period do
        (match Workload.plan w rng ~step ~n:!n ~n0 with
        | Workload.Join -> incr n
        | Workload.Leave -> decr n);
        if !n < lo || !n > hi then ok := false
      done;
      !ok)

(* Flash crowd: the burst pushes the population up by [size] before the
   exodus step, and the exodus drains the surplus back to n0. *)
let prop_flash_crowd_peak_and_exodus =
  QCheck.Test.make
    ~name:"flash crowd peaks at +size before depart and drains after"
    ~count:60
    QCheck.(
      triple (int_range 1 30) (int_range 50 200) (int_range 0 50))
    (fun (arrive_at, size, gap) ->
      let depart_at = arrive_at + size + gap in
      let w = Workload.Flash_crowd { arrive_at; size; depart_at } in
      let rng = Rng.of_int (size + (31 * arrive_at)) in
      let n0 = 400 in
      let n = ref n0 in
      let peak = ref n0 in
      let horizon = depart_at + size + arrive_at + gap + 10 in
      for step = 1 to horizon do
        (match Workload.plan w rng ~step ~n:!n ~n0 with
        | Workload.Join -> incr n
        | Workload.Leave -> decr n);
        if step < depart_at && !n > !peak then peak := !n
      done;
      (* The pre-burst coin walk loses at most [arrive_at - 1] nodes, so
         the burst's +size lands the peak at least here. *)
      !peak >= n0 + size - arrive_at && !n <= n0 + 1)

(* ---------- registry and parameter parsing ---------- *)

let test_registry_round_trip () =
  List.iter
    (fun name ->
      match Scenario.of_name name with
      | Error msg -> Alcotest.failf "of_name %s: %s" name msg
      | Ok spec ->
        checks (name ^ " keeps its name") name spec.Spec.name;
        if name <> "steady" && name <> "primitives" then
          checkb
            (name ^ " resolves to a strategy")
            true
            (match spec.Spec.churn with
            | Spec.Strategy _ -> true
            | Spec.Static | Spec.Paired -> false))
    (List.map fst Scenario.catalogue);
  checkb "unknown name is rejected" true
    (match Scenario.of_name "nosuch" with Error _ -> true | Ok _ -> false)

let test_strategy_params () =
  (match Scenario.of_name "flash-crowd:size=40,at=10,depart=90" with
  | Ok
      {
        Spec.churn =
          Spec.Strategy
            (Adversary.Ambient
               (Workload.Flash_crowd { arrive_at = 10; size = 40; depart_at = 90 }));
        _;
      } ->
    ()
  | Ok _ -> Alcotest.fail "flash-crowd params not applied"
  | Error msg -> Alcotest.fail msg);
  (match Scenario.of_name ~steps:500 "diurnal:period=100,amp=0.2" with
  | Ok
      {
        Spec.churn =
          Spec.Strategy
            (Adversary.Ambient (Workload.Diurnal { period = 100; amplitude }));
        _;
      } ->
    checkb "amp applied" true (abs_float (amplitude -. 0.2) < 1e-9)
  | Ok _ -> Alcotest.fail "diurnal params not applied"
  | Error msg -> Alcotest.fail msg);
  let rejected name =
    match Adversary.strategy_of_name name with
    | Error _ -> true
    | Ok _ -> false
  in
  checkb "unknown key rejected" true (rejected "flash-crowd:bogus=1");
  checkb "malformed pair rejected" true (rejected "flash-crowd:size");
  checkb "duplicate key rejected" true (rejected "flash-crowd:size=3,size=4");
  checkb "out-of-range ratio rejected" true (rejected "poisson:ratio=1.5");
  checkb "param-free strategy rejects params" true (rejected "target:x=1");
  match Adversary.strategy_of_name "grow-shrink:period=5" with
  | Ok (Adversary.Grow_shrink 5) -> ()
  | Ok _ -> Alcotest.fail "grow-shrink period not applied"
  | Error msg -> Alcotest.fail msg

(* ---------- driver determinism ---------- *)

let small_steady = { Scenario.steady with Spec.steps = 4 }

let run_state seed =
  let d = Scenario.State_driver.create ~seed small_steady in
  Scenario.run_driver (module Scenario.State_driver) small_steady d

let run_msg seed =
  let d = Scenario.Msg_driver.create ~seed small_steady in
  Scenario.run_driver (module Scenario.Msg_driver) small_steady d

let test_rerun_identical_state () =
  checkb "state driver rerun is bit-identical" true (run_state 9L = run_state 9L);
  checkb "state driver seeds differ" true (run_state 9L <> run_state 10L)

let test_rerun_identical_msg () =
  checkb "msg driver rerun is bit-identical" true (run_msg 9L = run_msg 9L)

let test_cells_jobs_identical () =
  let cells jobs =
    Scenario.cells ~jobs ~engine:`Mixed ~seed:42 ~cells:2 small_steady
  in
  checkb "-j 1 and -j 4 agree" true (cells 1 = cells 4)

let test_monitoring_zero_perturbation () =
  let bare = Scenario.cells ~jobs:1 ~engine:`Mixed ~seed:7 ~cells:2 small_steady in
  let store = Monitor.create () in
  let monitored =
    Monitor.with_monitor store (fun () ->
        Scenario.cells ~jobs:1 ~engine:`Mixed ~seed:7 ~cells:2 small_steady)
  in
  checkb "stats identical with monitoring on" true (bare = monitored);
  checkb "the monitor did sample" true (Monitor.Store.n_samples store > 0)

let test_msg_driver_counts () =
  let s = run_msg 11L in
  checki "paired churn joins every step" small_steady.Spec.steps s.Stats.joins;
  checki "paired churn leaves every step" small_steady.Spec.steps s.Stats.leaves;
  checki "nothing refused" 0 s.Stats.churn_failures;
  checkb "walks were driven" true (s.Stats.walks_ok + s.Stats.walks_failed > 0);
  checkb "messages were charged" true (s.Stats.messages > 0)

let test_msg_driver_supports () =
  match Scenario.of_name "target" with
  | Error msg -> Alcotest.fail msg
  | Ok spec ->
    checkb "msg driver rejects target" true
      (match Scenario.Msg_driver.supports spec with
      | Error _ -> true
      | Ok () -> false);
    List.iter
      (fun engine ->
        checkb
          ("check_supported rejects on " ^ Scenario.engine_name engine)
          true
          (match Scenario.check_supported engine spec with
          | Error _ -> true
          | Ok () -> false))
      [ `Msg; `Mixed; `Async ];
    checkb "check_supported state accepts" true
      (Scenario.check_supported `State spec = Ok ())

(* ---------- golden runs ----------

   [check_golden] runs [cells] cells of a spec at seed 5 and compares
   their stat lines, and optionally their digest stream, with values
   committed here and under test/golden.  The -j and rerun gates only
   compare a commit with itself; these pin verdicts, RNG draws and
   message counts across commits.  On a digest mismatch,
   [now_sim bisect --file-a/--file-b] against the golden file names the
   first divergent step.

   - msg: a short run of the synchronous message engine against
     equivocating members, recorded before the kernel stopped queueing
     messages nobody reads.
   - state: the steady scenario, recorded with
     [now_sim audit state --cells 2 --seed 5].  The arena-vs-reference
     suite cannot see a change to code both engines share
     ({!Audit.Digest_of}, the exchange epoch's charges); this file can.
   - async and mixed: three cells each, so every engine's cell seed
     offset (state 101, msg 401, async 701) and mixed's parity rule are
     pinned, recorded with [now_sim scenario steady --engine async|mixed
     --cells 3 --seed 5]. *)

let check_golden ~engine ~cells ?digests spec summaries () =
  let r = Audit.create () in
  let results =
    Audit.with_recorder r (fun () ->
        Scenario.cells ~jobs:1 ~engine ~seed:5 ~cells spec)
  in
  Option.iter
    (fun file ->
      checks "digest stream = golden"
        (In_channel.with_open_bin file In_channel.input_all)
        (Audit.Export.jsonl_string r))
    digests;
  Alcotest.(check (list string))
    "stat lines = golden" summaries
    (List.map (fun (label, s) -> label ^ " " ^ Stats.summary s) results)

let golden_spec = { Scenario.steady with Spec.behavior = Some "equivocate" }

let msg_golden_summaries =
  [
    "msg:steady n=96 #C=6 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.688 viol=0 msgs=7829197";
    "msg:steady n=96 #C=6 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.688 viol=0 msgs=8095804";
  ]

let state_golden_summaries =
  [
    "state:steady n=240 #C=3 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.790 viol=0 msgs=911132501";
    "state:steady n=240 #C=3 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.766 viol=0 msgs=914251676";
  ]

let async_golden_summaries =
  [
    "async:steady n=96 #C=6 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.706 viol=0 msgs=7825299 vt=2187.347 timeouts=0 lat_p99=7.999";
    "async:steady n=96 #C=6 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.688 viol=0 msgs=7813508 vt=1775.844 timeouts=0 lat_p99=8.000";
    "async:steady n=96 #C=6 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.688 viol=0 msgs=8995176 vt=1905.625 timeouts=0 lat_p99=7.999";
  ]

let mixed_golden_summaries =
  [
    "state:steady n=240 #C=3 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.790 viol=0 msgs=911132501";
    "msg:steady n=96 #C=6 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.688 viol=0 msgs=8760309";
    "state:steady n=240 #C=3 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.787 viol=0 msgs=898003993";
  ]

(* ---------- per-label charges vs net-detail points ----------

   Two steps of the primitives scenario on one cell of the message or the
   asynchronous engine with equivocating members, short enough that the
   collector drops nothing.  Every [net.send.<label>] point stands for one
   message charged under [label], so each label's point count must equal
   its ledger messages, and a net-detail run must charge exactly what a
   plain run charges.  The asynchronous cell is [create_cell ~seed:5
   ~cell:0], built in the open so the test can read its ledger. *)

let test_charges_match_net_points engine () =
  let spec = { Scenario.primitives with Spec.behavior = Some "equivocate" } in
  let run () =
    match engine with
    | `Msg ->
      let d = Scenario.Msg_driver.create_cell ~seed:5 ~cell:0 spec in
      ignore (Scenario.run_driver ~steps:2 (module Scenario.Msg_driver) spec d);
      Scenario.Msg_driver.ledger d
    | `Async ->
      let rng = Rng.of_int (5 + 701) in
      let cfg = Scenario.Msg_driver.build ~rng spec in
      let d = Scenario.Async_driver.of_config ~rng spec cfg in
      ignore (Scenario.run_driver ~steps:2 (module Scenario.Async_driver) spec d);
      Cluster.Config.ledger cfg
  in
  let ledger, dump = Trace.profiled ~net_detail:true run in
  checki "nothing dropped" 0 dump.Trace.dropped;
  let prefix = "net.send." in
  let sends = Hashtbl.create 16 in
  List.iter
    (function
      | Trace.Point { name; _ } when String.starts_with ~prefix name ->
        let skip = String.length prefix in
        let label = String.sub name skip (String.length name - skip) in
        Hashtbl.replace sends label
          (1 + Option.value ~default:0 (Hashtbl.find_opt sends label))
      | _ -> ())
    dump.Trace.events;
  List.iter
    (fun label -> checkb (label ^ " has sends") true (Hashtbl.mem sends label))
    [ "randnum"; "valchan"; "walk.token"; "exchange.announce" ];
  Hashtbl.iter
    (fun label n ->
      checki ("messages charged under " ^ label) n
        (Metrics.Ledger.label_messages ledger label))
    sends;
  Alcotest.(check (list (triple string int int)))
    "plain labels = net-detail labels"
    (Metrics.Ledger.labels ledger)
    (Metrics.Ledger.labels (run ()))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_diurnal_tracks_band;
    QCheck_alcotest.to_alcotest prop_flash_crowd_peak_and_exodus;
    Alcotest.test_case "registry round-trips through of_name" `Quick
      test_registry_round_trip;
    Alcotest.test_case "strategy parameters parse (and fail loudly)" `Quick
      test_strategy_params;
    Alcotest.test_case "state driver rerun determinism" `Quick
      test_rerun_identical_state;
    Alcotest.test_case "msg driver rerun determinism" `Quick
      test_rerun_identical_msg;
    Alcotest.test_case "cells are byte-identical for any -j" `Quick
      test_cells_jobs_identical;
    Alcotest.test_case "monitoring perturbs nothing" `Quick
      test_monitoring_zero_perturbation;
    Alcotest.test_case "msg driver tallies paired churn" `Quick
      test_msg_driver_counts;
    Alcotest.test_case "msg driver declares unsupported strategies" `Quick
      test_msg_driver_supports;
    Alcotest.test_case "equivocating msg run matches the golden stream" `Quick
      (check_golden ~engine:`Msg ~cells:2
         ~digests:"golden/msg_equivocate_steady.jsonl" golden_spec
         msg_golden_summaries);
    Alcotest.test_case "steady state-engine run matches the golden stream" `Quick
      (check_golden ~engine:`State ~cells:2 ~digests:"golden/state_steady.jsonl"
         Scenario.steady state_golden_summaries);
    Alcotest.test_case "steady async cells match the golden stat lines" `Quick
      (check_golden ~engine:`Async ~cells:3 Scenario.steady
         async_golden_summaries);
    Alcotest.test_case "steady mixed cells match the golden stat lines" `Quick
      (check_golden ~engine:`Mixed ~cells:3 Scenario.steady
         mixed_golden_summaries);
    Alcotest.test_case "msg run charges each label its net.send points" `Quick
      (test_charges_match_net_points `Msg);
    Alcotest.test_case "async run charges each label its net.send points" `Quick
      (test_charges_match_net_points `Async);
  ]
