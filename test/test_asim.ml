(* Tests for the asynchronous discrete-event engine (lib/asim): event-queue
   ordering properties, the delay-model catalogue, the zero-delay
   cross-validation against the synchronous message engine, and the
   determinism contracts of the async scenario driver (rerun and -j
   byte-identity, zero perturbation under recording). *)

module Queue = Asim.Event_queue
module Delay = Asim.Delay
module Session = Asim.Session
module Config = Cluster.Config
module Valchan = Cluster.Valchan
module Randnum = Cluster.Randnum
module Walk = Cluster.Walk
module B = Agreement.Byz_behavior
module Graph = Dsgraph.Graph
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------- event-queue properties ---------- *)

(* Drain a queue into its (time, payload) pop sequence. *)
let drain q =
  let rec go acc =
    if Queue.is_empty q then List.rev acc
    else begin
      let time = Queue.next_time q in
      go ((time, Queue.pop q) :: acc)
    end
  in
  go []

(* Pops come out sorted by time, FIFO among equal times, and nothing is
   lost or duplicated.  Times are drawn from a small integer range so
   ties actually occur. *)
let prop_queue_stable_order =
  QCheck.Test.make ~name:"event queue pops in stable (time, seq) order"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 60) (int_range 0 5))
    (fun times ->
      let q = Queue.create ~dummy:(-1, -1) in
      List.iteri
        (fun i t -> Queue.push q ~time:(float_of_int t) (i, t))
        times;
      let out = drain q in
      let sorted_times = List.sort compare (List.map fst out) in
      List.length out = List.length times
      (* no loss, no duplication: payload indices are exactly 0..n-1 *)
      && List.sort compare (List.map (fun (_, (i, _)) -> i) out)
         = List.init (List.length times) (fun i -> i)
      (* times non-decreasing *)
      && List.map fst out = sorted_times
      (* FIFO among equal times: payload indices increase within a tie *)
      && fst
           (List.fold_left
              (fun (ok, prev) (time, (i, _)) ->
                match prev with
                | Some (ptime, pi) when ptime = time -> (ok && pi < i, Some (time, i))
                | _ -> (ok, Some (time, i)))
              (true, None) out))

(* Interleaved pushes and pops never break the heap order. *)
let prop_queue_interleaved =
  QCheck.Test.make ~name:"event queue survives interleaved push/pop" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 0 60) (pair bool (int_range 0 9)))
    (fun ops ->
      let q = Queue.create ~dummy:() in
      let pushed = ref 0 and popped = ref 0 and last = ref neg_infinity in
      let ok = ref true in
      let pop () =
        let time = Queue.next_time q in
        Queue.pop q;
        incr popped;
        (* a pop can never go below an earlier pop once the queue only
           ever received times >= that pop *)
        if time < !last then ok := false;
        last := time
      in
      List.iter
        (fun (is_pop, t) ->
          if is_pop then (if not (Queue.is_empty q) then pop ())
          else begin
            let time = Float.max !last (float_of_int t) in
            Queue.push q ~time ();
            incr pushed
          end)
        ops;
      while not (Queue.is_empty q) do
        pop ()
      done;
      !ok && !pushed = !popped && Queue.is_empty q)

(* The kernel reuses one queue per session: after any push/pop history, a
   cleared queue pops exactly what a fresh queue pops for the same
   pushes — same times, same FIFO tie order, same payloads. *)
let prop_queue_clear_reuse =
  QCheck.Test.make ~name:"cleared event queue pops like a fresh one" ~count:200
    QCheck.(
      triple
        (list_of_size (QCheck.Gen.int_range 0 60) (int_range 0 5))
        (int_range 0 60)
        (list_of_size (QCheck.Gen.int_range 0 60) (int_range 0 5)))
    (fun (before, n_pops, after) ->
      let reused = Queue.create ~dummy:(-1) in
      List.iteri (fun i t -> Queue.push reused ~time:(float_of_int t) i) before;
      for _ = 1 to min n_pops (Queue.length reused) do
        ignore (Queue.pop reused)
      done;
      Queue.clear reused;
      let fresh = Queue.create ~dummy:(-1) in
      List.iteri
        (fun i t ->
          Queue.push reused ~time:(float_of_int t) i;
          Queue.push fresh ~time:(float_of_int t) i)
        after;
      Queue.pushed reused = Queue.pushed fresh && drain reused = drain fresh)

let test_queue_empty_access () =
  let q = Queue.create ~dummy:() in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  checkb "pop on empty raises" true (raises (fun () -> Queue.pop q));
  checkb "next_time on empty raises" true
    (raises (fun () -> ignore (Queue.next_time q)))

let test_queue_rejects_nan () =
  let q = Queue.create ~dummy:() in
  checkb "NaN time raises" true
    (match Queue.push q ~time:Float.nan () with
    | () -> false
    | exception Invalid_argument _ -> true)

(* ---------- delay models ---------- *)

let test_delay_round_trip () =
  List.iter
    (fun (base, _) ->
      match Delay.of_name base with
      | Error msg -> Alcotest.fail msg
      | Ok d -> (
        (* the canonical name parses back to the same model *)
        match Delay.of_name (Delay.name d) with
        | Error msg -> Alcotest.fail msg
        | Ok d' -> checks ("round-trip " ^ base) (Delay.name d) (Delay.name d')))
    Delay.catalogue;
  checkb "unknown model is refused" true
    (match Delay.of_name "warp" with Error _ -> true | Ok _ -> false);
  checkb "bad parameter is refused" true
    (match Delay.of_name "uniform:mean=-1" with Error _ -> true | Ok _ -> false);
  checkb "unknown parameter is refused" true
    (match Delay.of_name "zero:mean=2" with Error _ -> true | Ok _ -> false);
  (* Non-finite numbers and fractional counts are refused at parse time,
     never surfacing later as a sampling exception or an infinite delay. *)
  List.iter
    (fun name ->
      checkb (name ^ " is refused") true
        (match Delay.of_name name with Error _ -> true | Ok _ -> false))
    [
      "exp:mean=inf";
      "uniform:mean=inf";
      "uniform:mean=nan";
      "straggler:factor=inf";
      "straggler:every=2.5";
      "straggler:every=nan";
      "partition:penalty=inf";
      "partition:penalty=nan";
      "partition:groups=2.5";
    ]

(* Bounded support and structural slow sets: the crisp-threshold
   arithmetic E14 relies on. *)
let prop_delay_bounded_support =
  QCheck.Test.make ~name:"uniform/straggler delays stay in their bands"
    ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 1 4))
    (fun (seed, every) ->
      let rng = Rng.of_int seed in
      let mean = 1.0 and factor = 8.0 in
      let d = Delay.Straggler { mean; every; factor } in
      let ok = ref true in
      for src = 0 to 19 do
        let x = Delay.sample d rng ~src ~dst:(src + 1) in
        let slow = src mod every = 0 in
        let lo = if slow then 0.5 *. factor else 0.5
        and hi = if slow then 1.5 *. factor else 1.5 in
        if x < lo || x >= hi then ok := false
      done;
      !ok)

(* ---------- zero-delay cross-validation ---------- *)

let pair_config ~rng ~byz =
  let src = List.init 15 (fun i -> i) in
  let dst = List.init 15 (fun i -> 100 + i) in
  let byzantine node =
    if node >= 0 && node < byz then Some (B.Equivocate (9_001, 9_002)) else None
  in
  let overlay = Graph.create () in
  ignore (Graph.add_edge overlay 0 1);
  Config.make ~rng ~byzantine ~clusters:[ (0, src); (1, dst) ] ~overlay ()

(* Zero-delay async valchan reproduces the synchronous verdicts exactly,
   including against equivocating senders (same behaviour-stream draws). *)
let test_zero_delay_valchan_matches_sync () =
  List.iter
    (fun byz ->
      let seed = 2024 + byz in
      let cfg_sync = pair_config ~rng:(Rng.of_int seed) ~byz in
      let cfg_async = pair_config ~rng:(Rng.of_int seed) ~byz in
      let reference =
        Valchan.transmit cfg_sync ~src_cluster:0 ~dst_cluster:1 ~payload:77 ()
      in
      let s = Session.create ~rng:(Rng.of_int (seed + 1)) ~delay:Delay.Zero cfg_async in
      let res, makespan =
        Session.transmit s ~src_cluster:0 ~dst_cluster:1 ~payload:77 ()
      in
      checkb "verdicts equal" true (reference.Valchan.verdicts = res.Valchan.verdicts);
      checkb "unanimous equal" true
        (reference.Valchan.unanimous = res.Valchan.unanimous);
      checkb "zero delay, zero makespan" true (makespan = 0.0);
      checki "no timeouts" 0 (Session.timeouts s))
    [ 0; 5; 9 ]

let single_config ~rng ~n =
  let ids = List.init n (fun i -> i) in
  let overlay = Graph.create () in
  Graph.add_vertex overlay 0;
  Config.make ~rng ~byzantine:(fun _ -> None) ~clusters:[ (0, ids) ] ~overlay ()

let test_zero_delay_randnum_matches_sync () =
  for seed = 1 to 8 do
    let cfg_sync = single_config ~rng:(Rng.of_int seed) ~n:15 in
    let cfg_async = single_config ~rng:(Rng.of_int seed) ~n:15 in
    let reference = Randnum.run cfg_sync ~cluster:0 ~range:1000 in
    let s = Session.create ~rng:(Rng.of_int (seed + 1)) ~delay:Delay.Zero cfg_async in
    let o, _ = Session.randnum s ~cluster:0 ~range:1000 in
    checki "value equal" reference.Randnum.value o.Randnum.value;
    checki "participants equal" reference.Randnum.participants o.Randnum.participants;
    checkb "stalled equal" true (reference.Randnum.stalled = o.Randnum.stalled)
  done

(* Exactly 2n/3 corrupt members (6 of 9) is insecure and one fewer is
   secure, on both engines.  Kills the boundary mutant
   [3 * byz < 2 * n] -> [<=] in Randnum.secure. *)
let test_randnum_secure_boundary () =
  List.iter
    (fun (byz, secure) ->
      let cfg () =
        let overlay = Graph.create () in
        Graph.add_vertex overlay 0;
        Config.make ~rng:(Rng.of_int 31)
          ~byzantine:(fun node -> if node < byz then Some (B.Fixed 3) else None)
          ~clusters:[ (0, List.init 9 (fun i -> i)) ]
          ~overlay ()
      in
      let sync = Randnum.run (cfg ()) ~cluster:0 ~range:100 in
      let s = Session.create ~rng:(Rng.of_int 32) ~delay:Delay.Zero (cfg ()) in
      let async, _ = Session.randnum s ~cluster:0 ~range:100 in
      let what = Printf.sprintf "%d of 9 corrupt" byz in
      checkb (what ^ ", synchronous") secure sync.Randnum.secure;
      checkb (what ^ ", asynchronous") secure async.Randnum.secure)
    [ (6, false); (5, true) ]

(* Eight members in two id-residue groups of four, under a partition whose
   crossing penalty (64) outlasts the deadline (8): every escrow and
   reveal reaches exactly its contributor's own group, so each share has
   n/2 = 4 holders counting the contributor — not a strict majority.  No
   share counts and the draw stalls at the deadline.  Kills the boundary
   mutant [2 * on_time ... > n] -> [>=] in Asim.Session's randNum
   on-time quorum. *)
let test_async_randnum_half_quorum_stalls () =
  let delay = Delay.Partition { mean = 1.0; groups = 2; penalty = 64.0 } in
  let s =
    Session.create ~rng:(Rng.of_int 41) ~delay (single_config ~rng:(Rng.of_int 40) ~n:8)
  in
  let o, makespan = Session.randnum s ~cluster:0 ~range:100 in
  checki "no share reaches a strict majority" 0 o.Randnum.participants;
  checkb "stalled" true o.Randnum.stalled;
  checkb "at the deadline" true (makespan = Session.timeout s)

let ring_config ~rng =
  let clusters =
    List.init 6 (fun c -> (c, List.init 12 (fun j -> (c * 100) + j)))
  in
  let overlay = Graph.create () in
  for c = 0 to 5 do
    ignore (Graph.add_edge overlay c ((c + 1) mod 6))
  done;
  Config.make ~rng ~byzantine:(fun _ -> None) ~clusters ~overlay ()

let test_zero_delay_walk_matches_sync () =
  for seed = 1 to 6 do
    let cfg_sync = ring_config ~rng:(Rng.of_int seed) in
    let cfg_async = ring_config ~rng:(Rng.of_int seed) in
    let reference = Walk.rand_cl ~duration:6.0 cfg_sync ~start:0 in
    let s = Session.create ~rng:(Rng.of_int (seed + 1)) ~delay:Delay.Zero cfg_async in
    let res, makespan = Session.rand_cl s ~duration:6.0 ~start:0 () in
    (match (reference, res) with
    | Ok a, Ok b ->
      checki "endpoint equal" a.Walk.selected b.Walk.selected;
      checki "hops equal" a.Walk.hops b.Walk.hops;
      checki "restarts equal" a.Walk.restarts b.Walk.restarts
    | Error _, Error _ -> ()
    | _ -> Alcotest.fail "sync and zero-delay async walks disagree");
    checkb "zero delay, zero makespan" true (makespan = 0.0)
  done

(* Zero-delay exchange: the same walks, announcements, replacement draws
   and swaps as the synchronous engine, so the same placements, the same
   memberships and the same message bill. *)
let test_zero_delay_exchange_matches_sync () =
  for seed = 1 to 20 do
    let cfg_sync = ring_config ~rng:(Rng.of_int seed) in
    let cfg_async = ring_config ~rng:(Rng.of_int seed) in
    let reference = Cluster.Exchange.exchange_all cfg_sync ~cluster:0 in
    let s = Session.create ~rng:(Rng.of_int (seed + 1)) ~delay:Delay.Zero cfg_async in
    let res, _ = Session.exchange_all s ~cluster:0 () in
    (match (reference, res) with
    | Ok a, Ok b -> Alcotest.(check (list int)) "touched equal" a b
    | Error _, Error _ -> ()
    | _ -> Alcotest.fail "sync and zero-delay async exchanges disagree");
    List.iter
      (fun c ->
        Alcotest.(check (list int))
          (Printf.sprintf "cluster %d members" c)
          (Config.members cfg_sync c) (Config.members cfg_async c))
      (Config.cluster_ids cfg_sync);
    checki "ledger messages equal"
      (Metrics.Ledger.total_messages (Config.ledger cfg_sync))
      (Metrics.Ledger.total_messages (Config.ledger cfg_async))
  done

(* The whole driver at zero delay: churn, every primitive drive, periodic
   exchanges and scans equal the synchronous driver's over an identical
   configuration.  The synchronous root is advanced by the one split the
   asynchronous driver takes for its delay stream, so both drivers then
   draw the same payloads and churn picks.  The asynchronous engine counts
   no rounds and the synchronous one has no session deadlines; every other
   stat must agree. *)
let test_zero_delay_driver_matches_sync () =
  List.iter
    (fun behavior ->
      let spec =
        {
          Scenario.primitives with
          Scenario.Spec.delay = Some "zero";
          behavior;
          drive =
            { Scenario.primitives.Scenario.Spec.drive with exchange_every = Some 3 };
        }
      in
      List.iter
        (fun seed ->
          let rng_sync = Rng.of_int seed and rng_async = Rng.of_int seed in
          let cfg_sync = Scenario.Msg_driver.build ~rng:rng_sync spec in
          let cfg_async = Scenario.Msg_driver.build ~rng:rng_async spec in
          ignore (Rng.split rng_sync);
          let sync = Scenario.Msg_driver.of_config ~rng:rng_sync spec cfg_sync in
          let async = Scenario.Async_driver.of_config ~rng:rng_async spec cfg_async in
          for time = 0 to 11 do
            Scenario.Msg_driver.step sync ~time;
            Scenario.Async_driver.step async ~time
          done;
          let blind (s : Scenario.Stats.t) =
            { s with rounds = 0; session_timeouts = 0 }
          in
          checkb "stats equal (rounds, timeouts aside)" true
            (blind (Scenario.Msg_driver.stats sync)
            = blind (Scenario.Async_driver.stats async));
          checkb "memberships equal" true
            (List.map (Config.members cfg_sync) (Config.cluster_ids cfg_sync)
            = List.map (Config.members cfg_async) (Config.cluster_ids cfg_async)))
        [ 3; 4 ])
    [ None; Some "equivocate" ]

(* Every session primitive's returned makespan is the virtual time it
   advanced the session clock by.  Each call runs on a fresh session, so
   the clock delta is the clock itself; [exchange_all] groups its sum per
   node, so the two agree up to float summation order. *)
let test_session_makespans_match_clock () =
  let same a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 b in
  for seed = 1 to 20 do
    let session () =
      Session.create ~rng:(Rng.of_int (seed + 1))
        ~delay:(Delay.Uniform { mean = 1.0 })
        (ring_config ~rng:(Rng.of_int seed))
    in
    let check name run =
      let s = session () in
      let makespan = run s in
      checkb
        (Printf.sprintf "seed %d: %s makespan %g = clock %g" seed name makespan
           (Session.clock s))
        true
        (same makespan (Session.clock s))
    in
    check "transmit" (fun s ->
        snd (Session.transmit s ~src_cluster:0 ~dst_cluster:1 ~payload:7 ()));
    check "randnum" (fun s -> snd (Session.randnum s ~cluster:0 ~range:100));
    check "rand_cl" (fun s -> snd (Session.rand_cl s ~start:0 ()));
    check "exchange_node" (fun s -> snd (Session.exchange_node s ~node:3 ()));
    check "exchange_all" (fun s -> snd (Session.exchange_all s ~cluster:0 ()))
  done

(* ---------- async scenario driver determinism ---------- *)

let async_cells ?jobs () =
  Scenario.cells ?jobs ~engine:`Async ~seed:7 ~cells:4 Scenario.steady

let test_async_cells_jobs_identical () =
  let sequential = async_cells ~jobs:1 () in
  let parallel = async_cells ~jobs:2 () in
  let rerun = async_cells ~jobs:2 () in
  checkb "-j1 == -j2" true (sequential = parallel);
  checkb "rerun identical" true (parallel = rerun);
  List.iter
    (fun (label, s) ->
      checks "async label" "async:steady" label;
      checkb "virtual time advanced" true (s.Scenario.Stats.virtual_time > 0.0))
    sequential

(* Recording digests must not change a single stat (the recorder's
   zero-perturbation contract extends to the async driver, delay-stream
   cursor included). *)
let test_async_recording_zero_perturbation () =
  let plain = async_cells () in
  let recorder = Audit.create ~cadence:2 () in
  let recorded = Audit.with_recorder recorder (fun () -> async_cells ()) in
  checkb "stats identical under recording" true (plain = recorded);
  checkb "frames were recorded" true (Audit.Recorder.n_frames recorder > 0)

let test_engine_of_name_async () =
  checkb "async parses" true (Scenario.engine_of_name "async" = Ok `Async);
  checks "async prints" "async" (Scenario.engine_name `Async);
  (match Scenario.engine_of_name "bogus" with
  | Ok _ -> Alcotest.fail "bogus engine accepted"
  | Error msg ->
    checkb "error lists the full catalogue" true
      (let has needle =
         let nlen = String.length needle and len = String.length msg in
         let rec go i = i + nlen <= len && (String.sub msg i nlen = needle || go (i + 1)) in
         go 0
       in
       has "state" && has "msg" && has "mixed" && has "async"));
  (* a bad delay name in the spec is rejected before any cell runs *)
  let bad = { Scenario.steady with Scenario.Spec.delay = Some "warp" } in
  checkb "unknown delay model rejected" true
    (match Scenario.check_supported `Async bad with
    | Error _ -> true
    | Ok () -> false)

(* ---------- golden async run ----------

   The digest stream and stat lines of a short async run under a non-zero
   (straggler) delay model, recorded before the kernel moved onto a
   reused array heap and dense session tallies, and committed under
   test/golden.  The zero-delay tests above cover delay 0 only; this pins
   the delay draws, deadlines, stalls and verdicts of the latency path
   across commits.  On a mismatch, [now_sim bisect --file-a/--file-b]
   against the golden file names the first divergent step. *)

let golden_spec =
  {
    Scenario.steady with
    Scenario.Spec.delay = Some "straggler:every=4,factor=8";
    behavior = Some "equivocate";
  }

let golden_summaries =
  [
    "async:steady n=96 #C=6 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.688 viol=0 msgs=8406155 vt=1662.810 timeouts=59 lat_p99=8.000";
    "async:steady n=96 #C=6 joins=12 leaves=12 splits=0 merges=0 churn-fail=0 \
     min-honest=0.688 viol=0 msgs=7486674 vt=1289.270 timeouts=18 lat_p99=8.000";
  ]

let test_async_golden () =
  let r = Audit.create () in
  let cells =
    Audit.with_recorder r (fun () ->
        Scenario.cells ~jobs:1 ~engine:`Async ~seed:5 ~cells:2 golden_spec)
  in
  let golden =
    In_channel.with_open_bin "golden/async_straggler_steady.jsonl" In_channel.input_all
  in
  checks "digest stream = golden" golden (Audit.Export.jsonl_string r);
  Alcotest.(check (list string))
    "stat lines = golden" golden_summaries
    (List.map (fun (label, s) -> label ^ " " ^ Scenario.Stats.summary s) cells)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_queue_stable_order;
    QCheck_alcotest.to_alcotest prop_queue_interleaved;
    QCheck_alcotest.to_alcotest prop_queue_clear_reuse;
    Alcotest.test_case "event queue refuses empty access" `Quick
      test_queue_empty_access;
    Alcotest.test_case "event queue rejects NaN times" `Quick
      test_queue_rejects_nan;
    Alcotest.test_case "delay catalogue round-trips through of_name" `Quick
      test_delay_round_trip;
    QCheck_alcotest.to_alcotest prop_delay_bounded_support;
    Alcotest.test_case "zero-delay valchan == synchronous verdicts" `Quick
      test_zero_delay_valchan_matches_sync;
    Alcotest.test_case "zero-delay randNum == synchronous draw" `Quick
      test_zero_delay_randnum_matches_sync;
    Alcotest.test_case "randNum security boundary at exactly 2n/3 corrupt" `Quick
      test_randnum_secure_boundary;
    Alcotest.test_case "async randNum: n/2 on-time holders is no quorum" `Quick
      test_async_randnum_half_quorum_stalls;
    Alcotest.test_case "zero-delay walk == synchronous endpoint" `Quick
      test_zero_delay_walk_matches_sync;
    Alcotest.test_case "zero-delay exchange == synchronous exchange" `Quick
      test_zero_delay_exchange_matches_sync;
    Alcotest.test_case "zero-delay async driver == message driver" `Quick
      test_zero_delay_driver_matches_sync;
    Alcotest.test_case "session makespans equal the clock advance" `Quick
      test_session_makespans_match_clock;
    Alcotest.test_case "async cells are byte-identical for any -j" `Quick
      test_async_cells_jobs_identical;
    Alcotest.test_case "recording perturbs no async stat" `Quick
      test_async_recording_zero_perturbation;
    Alcotest.test_case "engine catalogue includes async" `Quick
      test_engine_of_name_async;
    Alcotest.test_case "straggler-delay async run matches the golden stream" `Quick
      test_async_golden;
  ]
