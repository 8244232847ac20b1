(* Tests for the asynchronous engine (lib/asim): event-queue ordering
   properties, the delay-model catalogue, the zero-delay cross-validation
   against the synchronous message engine, the sessions against their
   event-queue oracle, and the determinism contracts of the async scenario
   driver (rerun and -j byte-identity, zero perturbation under
   recording). *)

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

(* A patience that is not positive and finite would put every deadline
   at nan, zero, a negative time or infinity. *)
let test_session_refuses_bad_patience () =
  let cfg = single_config ~rng:(Rng.of_int 60) ~n:4 in
  List.iter
    (fun patience ->
      checkb
        (Printf.sprintf "patience %g raises" patience)
        true
        (match Session.create ~patience ~rng:(Rng.of_int 61) ~delay:Delay.Zero cfg with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ Float.nan; 0.0; -1.0; Float.infinity ]

(* A draw reads only its own n * n cells of the arrays a session reuses,
   and its queue peaks follow the closed form.  Under
   [straggler:every=3,factor=8] cluster 0's twenty members (no multiple
   of 3) are fast, and fifteen of them are silent: its five contributors
   queue 5 * 20 = 100 events, 95 of them escrows that all arrive before
   the boundary 4, in cells past the 100 cluster 1 uses.  Cluster 1's ten
   members (all multiples of 3) are slow, so none of their escrows
   arrives by the boundary and the queue is longest after the last
   timer: 100 - 10 + 10 * 9 = 180 events, all of them messages. *)
let test_randnum_peaks_after_a_larger_draw () =
  let fast = List.init 20 (fun i -> (3 * (i / 2)) + 1 + (i mod 2)) in
  let slow = List.init 10 (fun i -> 300 + (3 * i)) in
  let overlay = Graph.create () in
  ignore (Graph.add_edge overlay 0 1);
  let cfg =
    Config.make ~rng:(Rng.of_int 50)
      ~byzantine:(fun node -> if node < 23 then Some B.Silent else None)
      ~clusters:[ (0, fast); (1, slow) ]
      ~overlay ()
  in
  let delay = Delay.Straggler { mean = 1.0; every = 3; factor = 8.0 } in
  let s = Session.create ~rng:(Rng.of_int 51) ~delay cfg in
  ignore (Session.randnum s ~cluster:0 ~range:10);
  checki "queue peak after the larger draw" 100 (Session.queue_peak s);
  checki "in-flight peak after the larger draw" 95 (Session.inflight_peak s);
  ignore (Session.randnum s ~cluster:1 ~range:10);
  checki "queue peak after the smaller draw" 180 (Session.queue_peak s);
  checki "in-flight peak after the smaller draw" 180 (Session.inflight_peak s)

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

(* ---------- the sessions' trace events under latency ----------

   The asynchronous twin of test_cluster's session golden: every event one
   randNum draw and one walk.token transfer emit under a net-detail
   collector, on the same configuration (a [Silent] and a [Fixed] member
   in cluster 0, an equivocating and a misrouting source in cluster 1),
   under [straggler:every=4,factor=8], so nodes 0, 4, 12 and 20 send
   slowly.  The escrows are stamped 0 and the reveals the phase boundary
   4; the transfer's copies are stamped 0 inside a span at the clock 8.
   Against test/golden/async_session_net_detail.jsonl, with the outcomes,
   makespans, peaks and delay-stream cursor pinned alongside. *)

let test_async_session_events_golden () =
  let cfg = Test_cluster.session_config () in
  let delay =
    match Delay.of_name "straggler:every=4,factor=8" with
    | Ok d -> d
    | Error msg -> failwith msg
  in
  let s = Session.create ~rng:(Rng.of_int 8) ~delay cfg in
  let ((o, draw_makespan), (res, transfer_makespan)), dump =
    Trace.profiled ~net_detail:true (fun () ->
        let draw = Session.randnum s ~cluster:0 ~range:100 in
        let transfer =
          Session.transmit s ~src_cluster:1 ~dst_cluster:2 ~label:"walk.token"
            ~payload:7 ()
        in
        (draw, transfer))
  in
  let checkf = Alcotest.(check (float 0.0)) in
  checki "nothing dropped" 0 dump.Trace.dropped;
  checki "value" 88 o.Randnum.value;
  checkb "secure" true o.Randnum.secure;
  checkb "stalled" true o.Randnum.stalled;
  checki "participants" 3 o.Randnum.participants;
  checkf "draw makespan" 8.0 draw_makespan;
  checkb "no destination decides" true
    (res.Valchan.verdicts = [ (20, None); (21, None); (22, None) ]
    && res.Valchan.unanimous = None);
  checkf "transfer makespan" 8.0 transfer_makespan;
  checkf "clock" 16.0 (Session.clock s);
  checki "timeouts" 2 (Session.timeouts s);
  checki "queue peak" 35 (Session.queue_peak s);
  checki "in-flight peak" 35 (Session.inflight_peak s);
  Alcotest.(check int64)
    "delay-stream cursor" 5868043997075344670L (Session.rng_cursor s);
  Alcotest.(check (list (triple string int int)))
    "charges"
    [ ("randnum", 50, 0); ("walk.token", 12, 0) ]
    (Metrics.Ledger.labels (Config.ledger cfg));
  let golden =
    In_channel.with_open_bin "golden/async_session_net_detail.jsonl"
      In_channel.input_all
  in
  checks "events = golden" golden (Trace.to_jsonl dump)

(* ---------- the sessions vs their event-queue oracle ----------

   valChan and randNum run on the [(time, seq)] kernel: every copy is a
   queued event delivered to a handler, and randNum's reveals leave from
   timers at the phase boundary.  With the session bookkeeping the
   comparison reads, this is the oracle the sessions, which compute each
   copy's arrival directly, are checked against. *)

module Queue_session = struct
  module Anet = Asim.Anet
  module Buckets = Metrics.Histogram.Buckets

  let escrow = 0
  let reveal = 1

  type t = {
    cfg : Config.t;
    patience : float;
    delay : Delay.t;
    rng : Rng.t;
    net : int Anet.t;
    pos : (int, int) Hashtbl.t;
    mutable clock : float;
    mutable timeouts : int;
    lat : Buckets.t;
    mutable queue_peak : int;
    mutable inflight_peak : int;
  }

  let create ~patience ~rng ~delay cfg =
    {
      cfg;
      patience;
      delay;
      rng;
      net = Anet.create ~ledger:(Config.ledger cfg) ~rng ~delay ();
      pos = Hashtbl.create 64;
      clock = 0.0;
      timeouts = 0;
      lat = Buckets.create ();
      queue_peak = 0;
      inflight_peak = 0;
    }

  let timeout t = t.patience *. Delay.mean t.delay

  let account t ~makespan ~timed_out =
    t.clock <- t.clock +. makespan;
    Buckets.add t.lat makespan;
    if timed_out then t.timeouts <- t.timeouts + 1

  let start t members =
    Anet.reset t.net;
    Hashtbl.clear t.pos;
    List.iteri (fun i id -> Hashtbl.replace t.pos id i) members;
    t.net

  let absorb_net t =
    t.queue_peak <- max t.queue_peak (Anet.queue_peak t.net);
    t.inflight_peak <- max t.inflight_peak (Anet.inflight_peak t.net)

  let valchan_session t ~src_cluster ~dst_cluster ~label ~payload =
    let cfg = t.cfg in
    let src_members = Config.members cfg src_cluster in
    let dst_members = Config.members cfg dst_cluster in
    let n = List.length src_members and n_dst = List.length dst_members in
    let threshold = n / 2 in
    let deadline = timeout t in
    let net = start t src_members in
    let voted = Array.make (n_dst * n) false in
    let values = Array.make (n_dst * n) 0 and counts = Array.make (n_dst * n) 0 in
    let n_values = Array.make n_dst 0 in
    let decided_at = Array.make n_dst infinity and verdict = Array.make n_dst 0 in
    let vote ~d ~src value =
      if decided_at.(d) = infinity then
        match Hashtbl.find t.pos src with
        | exception Not_found -> ()
        | s ->
          let base = d * n in
          if not voted.(base + s) then begin
            voted.(base + s) <- true;
            let m = n_values.(d) in
            let k = ref 0 in
            while !k < m && values.(base + !k) <> value do
              incr k
            done;
            if !k = m then begin
              values.(base + m) <- value;
              counts.(base + m) <- 0;
              n_values.(d) <- m + 1
            end;
            let c = counts.(base + !k) + 1 in
            counts.(base + !k) <- c;
            if c > threshold then begin
              decided_at.(d) <- Anet.now net;
              verdict.(d) <- value
            end
          end
    in
    List.iteri
      (fun d id ->
        if Config.is_byzantine cfg id then Anet.add_node net ~id (fun ~src:_ _ -> ())
        else Anet.add_node net ~id (fun ~src value -> vote ~d ~src value))
      dst_members;
    List.iter
      (fun id ->
        if not (Anet.is_alive net id) then Anet.add_node net ~id (fun ~src:_ _ -> ()))
      src_members;
    List.iter
      (fun id ->
        match Config.byzantine cfg id with
        | None -> Anet.multicast net ~src:id ~dsts:dst_members ~label payload
        | Some strategy ->
          Valchan.corrupted_sends strategy ~src:id ~dsts:dst_members ~label ~payload
            (fun ~dst ~deviant v -> Anet.send net ~src:id ~dst ~label ~deviant v))
      src_members;
    Anet.run ~until:deadline net;
    let timed_out = ref false and makespan = ref 0.0 and verdicts = ref [] in
    List.iteri
      (fun d id ->
        if not (Config.is_byzantine cfg id) then begin
          let at = decided_at.(d) in
          let decided = at < infinity in
          if not decided then timed_out := true;
          makespan := Float.max !makespan (if decided then at else deadline);
          verdicts := (id, if decided then Some verdict.(d) else None) :: !verdicts
        end)
      dst_members;
    let result = Valchan.summarise (List.rev !verdicts) in
    absorb_net t;
    account t ~makespan:!makespan ~timed_out:!timed_out;
    (result, !makespan)

  let transmit t ~src_cluster ~dst_cluster ~label ~payload =
    Trace.with_span
      ~attrs:[ ("dst", dst_cluster); ("src", src_cluster) ]
      ~ledger:(Config.ledger t.cfg) ~time:(int_of_float t.clock) Trace.Msg label
      (fun () -> valchan_session t ~src_cluster ~dst_cluster ~label ~payload)

  let randnum_session t ~cluster ~range =
    let cfg = t.cfg in
    let members = Config.members cfg cluster in
    let n = List.length members in
    let secure = Randnum.secure cfg members in
    let deadline = timeout t in
    let boundary = 0.5 *. deadline in
    let net = start t members in
    let escrow_at = Array.make (n * n) infinity in
    let reveal_at = Array.make (n * n) infinity in
    let contributions = ref [] in
    List.iteri
      (fun j id ->
        let contribution = Randnum.contribution cfg id in
        Anet.add_node net ~id (fun ~src phase ->
            match Hashtbl.find t.pos src with
            | exception Not_found -> ()
            | i ->
              let tbl = if phase = escrow then escrow_at else reveal_at in
              let k = (i * n) + j in
              if tbl.(k) = infinity then tbl.(k) <- Anet.now net);
        match contribution with
        | None -> ()
        | Some c ->
          contributions := (id, c) :: !contributions;
          Anet.multicast net ~src:id ~dsts:members ~except:id ~label:"randnum" escrow;
          Anet.at net ~time:boundary (fun () ->
              Anet.multicast net ~src:id ~dsts:members ~except:id ~label:"randnum"
                reveal))
      members;
    Anet.run ~until:deadline net;
    let on_time (tbl : float array) ~contributor ~(limit : float) =
      let held = ref 1 in
      for k = contributor * n to ((contributor + 1) * n) - 1 do
        if tbl.(k) <= limit then incr held
      done;
      !held
    in
    let included =
      List.filter
        (fun (id, _) ->
          let i = Hashtbl.find t.pos id in
          2 * on_time escrow_at ~contributor:i ~limit:boundary > n
          && 2 * on_time reveal_at ~contributor:i ~limit:deadline > n)
        !contributions
    in
    let outcome = Randnum.conclude ~secure ~n ~range included in
    let last_reveal acc (id, _) =
      let i = Hashtbl.find t.pos id in
      let last = ref acc in
      for k = i * n to ((i + 1) * n) - 1 do
        let at = reveal_at.(k) in
        if at <= deadline && at > !last then last := at
      done;
      !last
    in
    let stalled = outcome.Randnum.stalled in
    let makespan =
      if stalled then deadline else List.fold_left last_reveal 0.0 included
    in
    absorb_net t;
    account t ~makespan ~timed_out:stalled;
    (outcome, makespan)

  let randnum t ~cluster ~range =
    let n = List.length (Config.members t.cfg cluster) in
    Trace.with_span
      ~attrs:[ ("cluster", cluster); ("size", n) ]
      ~ledger:(Config.ledger t.cfg) ~time:(int_of_float t.clock) Trace.Msg "randnum"
      (fun () -> randnum_session t ~cluster ~range)

  let leaves t =
    {
      Walk.randnum = (fun ~cluster ~range -> randnum t ~cluster ~range);
      transmit = transmit t;
      bulk_rounds = 0;
      span_time = (fun () -> int_of_float t.clock);
    }

  let latency_p99 t =
    if Buckets.count t.lat = 0 then 0.0 else Buckets.percentile t.lat 99.0
end

(* One call of a property case; both engines run the same list. *)
type call =
  | Transmit of { src : int; dst : int; walk : bool }
  | Draw of { cluster : int; range : int }
  | Rand_cl of { start : int; max_restarts : int }
  | Exchange_node of { node : int }

(* What a call returns, on either engine. *)
type reply =
  | Transferred of Valchan.result * float
  | Drawn of Randnum.outcome * float
  | Walked of (Walk.stats, Walk.error) result * float
  | Exchanged of (int, Walk.error) result * float

let behaviors =
  [|
    B.Silent;
    B.Fixed 9;
    B.Equivocate (7, 9);
    B.Random_noise 3;
    B.Bias_share 5;
    B.Drop_walk 6;
    B.Misroute_walk 8;
    B.Lie_views 4;
  |]

(* Clusters [0 .. k - 1] of the given sizes, cluster [c] holding
   [c * 100 + 0 ..]; the first [byz.(c)] members of each are corrupted,
   member [i] with [behaviors.(kinds.(i mod |kinds|))]; a ring overlay. *)
let oracle_config seed ~sizes ~byz ~kinds =
  let kinds = Array.of_list kinds in
  let byzantine node =
    let c = node / 100 and i = node mod 100 in
    if i < byz.(c) then Some behaviors.(kinds.(i mod Array.length kinds)) else None
  in
  let k = Array.length sizes in
  let clusters =
    List.init k (fun c -> (c, List.init sizes.(c) (fun i -> (c * 100) + i)))
  in
  let overlay = Graph.create () in
  for c = 0 to k - 1 do
    ignore (Graph.add_edge overlay c ((c + 1) mod k))
  done;
  Config.make ~rng:(Rng.of_int seed) ~byzantine ~clusters ~overlay ()

let delay_models =
  [|
    Delay.Zero;
    Delay.Uniform { mean = 1.0 };
    Delay.Exponential { mean = 1.0 };
    Delay.Straggler { mean = 1.0; every = 3; factor = 8.0 };
    Delay.Partition { mean = 1.0; groups = 2; penalty = 3.0 };
  |]

let patiences = [| 0.5; 1.0; 2.0; 4.0; 8.0; 16.0 |]

let gen_oracle_case =
  let open QCheck.Gen in
  let* seed = small_nat in
  let* k = int_range 2 4 in
  let* sizes = array_size (return k) (int_range 1 20) in
  let* byz = array_size (return k) (float_bound_inclusive 1.0) in
  let byz = Array.mapi (fun c f -> int_of_float (f *. float_of_int sizes.(c))) byz in
  let* kinds = list_size (int_range 1 4) (int_range 0 (Array.length behaviors - 1)) in
  let* delay = int_range 0 (Array.length delay_models - 1) in
  let* patience = int_range 0 (Array.length patiences - 1) in
  let call =
    frequency
      [
        ( 3,
          let* src = int_range 0 (k - 1)
          and* dst = int_range 0 (k - 1)
          and* walk = bool in
          return (Transmit { src; dst; walk }) );
        ( 3,
          let* cluster = int_range 0 (k - 1) and* range = int_range 1 1000 in
          return (Draw { cluster; range }) );
        ( 2,
          let* start = int_range 0 (k - 1) and* max_restarts = int_range 0 3 in
          return (Rand_cl { start; max_restarts }) );
        ( 1,
          let* c = int_range 0 (k - 1) and* i = int_range 0 19 in
          return (Exchange_node { node = (c * 100) + (i mod sizes.(c)) }) );
      ]
  in
  let* calls = list_size (int_range 1 6) call in
  return (seed, sizes, byz, kinds, delay, patience, calls)

let print_oracle_case (seed, sizes, byz, kinds, delay, patience, calls) =
  let ints a = String.concat "," (List.map string_of_int a) in
  Printf.sprintf
    "seed=%d sizes=[%s] byz=[%s] kinds=[%s] delay=%s patience=%g calls=[%s]"
    seed
    (ints (Array.to_list sizes))
    (ints (Array.to_list byz))
    (ints kinds)
    (Delay.name delay_models.(delay))
    patiences.(patience)
    (String.concat "; "
       (List.map
          (function
            | Transmit { src; dst; walk } ->
              Printf.sprintf "transmit %d->%d%s" src dst (if walk then " walk" else "")
            | Draw { cluster; range } -> Printf.sprintf "randnum %d/%d" cluster range
            | Rand_cl { start; max_restarts } ->
              Printf.sprintf "rand_cl %d (restarts %d)" start max_restarts
            | Exchange_node { node } -> Printf.sprintf "exchange_node %d" node)
          calls))

(* Everything a run exposes: each call's reply, the session counters and
   peaks, the delay and configuration stream cursors, the ledger's
   per-label charges and every net-detail trace event.  A walk through
   insecure clusters ends only at its hop budget, which grows with
   [max_restarts]: exchange_node (default restarts) runs only when every
   cluster is secure, 3 * byz < 2 * |C|. *)
let observe ~secure run (seed, sizes, byz, kinds, delay, patience, calls) =
  let cfg = oracle_config seed ~sizes ~byz ~kinds in
  let rng = Rng.of_int (seed + 1) in
  let replies, dump =
    Trace.profiled ~net_detail:true (fun () ->
        run cfg ~rng ~delay:delay_models.(delay) ~patience:patiences.(patience)
          (List.filter
             (function Exchange_node _ -> secure | _ -> true)
             calls))
  in
  ( replies,
    Rng.save rng,
    Rng.save (Config.rng cfg),
    Metrics.Ledger.labels (Config.ledger cfg),
    dump.Trace.dropped,
    dump.Trace.events )

let apply leaves cfg call =
  match call with
  | Transmit { src; dst; walk } ->
    let label = if walk then "walk.token" else "valchan" in
    let r, m =
      leaves.Walk.transmit ~src_cluster:src ~dst_cluster:dst ~label ~payload:7
    in
    Transferred (r, m)
  | Draw { cluster; range } ->
    let o, m = leaves.Walk.randnum ~cluster ~range in
    Drawn (o, m)
  | Rand_cl { start; max_restarts } ->
    let r, m = Walk.rand_cl_on leaves ~max_restarts cfg ~start in
    Walked (r, m)
  | Exchange_node { node } ->
    let r, m = Cluster.Exchange.exchange_node_on leaves cfg ~node in
    Exchanged (r, m)

let prop_sessions_match_queue_oracle =
  QCheck.Test.make ~name:"async sessions == their event-queue oracle" ~count:500
    (QCheck.make ~print:print_oracle_case gen_oracle_case)
    (fun ((_, sizes, byz, _, _, _, _) as case) ->
      let secure =
        Array.for_all2 (fun size b -> 3 * b < 2 * size) sizes byz
      in
      let session cfg ~rng ~delay ~patience calls =
        let s = Session.create ~patience ~rng ~delay cfg in
        let replies = List.map (apply (Session.leaves s) cfg) calls in
        ( replies,
          Session.clock s,
          Session.timeouts s,
          Session.queue_peak s,
          Session.inflight_peak s,
          Session.latency_p99 s )
      in
      let oracle cfg ~rng ~delay ~patience calls =
        let q = Queue_session.create ~patience ~rng ~delay cfg in
        let replies = List.map (apply (Queue_session.leaves q) cfg) calls in
        ( replies,
          q.Queue_session.clock,
          q.Queue_session.timeouts,
          q.Queue_session.queue_peak,
          q.Queue_session.inflight_peak,
          Queue_session.latency_p99 q )
      in
      observe ~secure session case = observe ~secure oracle case)

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
    Alcotest.test_case "session refuses a patience that is not positive and finite"
      `Quick test_session_refuses_bad_patience;
    Alcotest.test_case "randNum queue peaks after a larger draw" `Quick
      test_randnum_peaks_after_a_larger_draw;
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
    Alcotest.test_case "async session trace events match the golden" `Quick
      test_async_session_events_golden;
    QCheck_alcotest.to_alcotest prop_sessions_match_queue_oracle;
  ]
