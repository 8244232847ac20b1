(* Tests for lib/trace: span reconstruction, determinism of the serialised
   stream across reruns and worker counts, zero-overhead when no collector
   is installed, and ledger-delta consistency of the instrumented engines. *)

module Engine = Now_core.Engine
module Params = Now_core.Params
module Node = Now_core.Node
module Ledger = Metrics.Ledger
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let population rng n tau =
  List.init n (fun _ -> if Rng.bernoulli rng tau then Node.Byzantine else Node.Honest)

let small_engine seed =
  let params =
    Params.make ~n_max:(1 lsl 10) ~k:3 ~tau:0.15 ~walk_mode:Params.Exact_walk ()
  in
  let rng = Rng.create (Int64.of_int (seed + 13)) in
  Engine.create ~seed:(Int64.of_int seed) params ~initial:(population rng 120 0.15)

(* --- basics --- *)

let test_inactive_is_noop () =
  checkb "inactive" false (Trace.active ());
  checkb "no net detail" false (Trace.net_detail ());
  Trace.point Trace.State "ignored";
  let r = Trace.with_span Trace.Msg "ignored" (fun () -> 41 + 1) in
  checki "with_span passes value through" 42 r;
  Alcotest.check_raises "stop without start"
    (Invalid_argument "Trace.stop: no collector is active") (fun () ->
      ignore (Trace.stop ()))

let test_span_reconstruction () =
  let ledger = Ledger.create () in
  let (), dump =
    Trace.profiled (fun () ->
        Trace.with_span ~ledger ~time:5 Trace.State "outer" (fun () ->
            Ledger.charge ledger ~label:"a" ~messages:10 ~rounds:1;
            Trace.with_span ~ledger Trace.State "inner" (fun () ->
                Ledger.charge ledger ~label:"b" ~messages:4 ~rounds:2);
            Trace.point ~attrs:[ ("k", 7) ] Trace.Msg "mark"))
  in
  checki "no drops" 0 dump.Trace.dropped;
  let items = Trace.items dump in
  checki "three items" 3 (List.length items);
  (match items with
  | [
   Trace.Span outer;
   Trace.Span inner;
   Trace.Mark { depth = mark_depth; time = mark_time; attrs = mark_attrs; _ };
  ] ->
    checks "outer name" "outer" outer.Trace.name;
    checki "outer depth" 0 outer.Trace.depth;
    checki "outer time" 5 outer.Trace.time;
    checki "outer messages" 14 outer.Trace.messages;
    checki "outer rounds" 3 outer.Trace.rounds;
    checki "outer self messages" 10 outer.Trace.self_messages;
    checki "outer self rounds" 1 outer.Trace.self_rounds;
    checks "inner name" "inner" inner.Trace.name;
    checki "inner depth" 1 inner.Trace.depth;
    checki "inner time inherited" 5 inner.Trace.time;
    checki "inner messages" 4 inner.Trace.messages;
    checki "mark depth" 1 mark_depth;
    checki "mark time inherited" 5 mark_time;
    checkb "mark attr kept" true (mark_attrs = [ ("k", 7) ]);
    checkb "inner nested in outer" true
      (outer.Trace.seq < inner.Trace.seq
      && inner.Trace.end_seq <= outer.Trace.end_seq)
  | _ -> Alcotest.fail "unexpected item shapes")

let test_span_closes_on_exception () =
  let (), dump =
    Trace.profiled (fun () ->
        try
          Trace.with_span Trace.State "raiser" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  match Trace.items dump with
  | [ Trace.Span s ] ->
    checks "span recorded" "raiser" s.Trace.name;
    checki "zero delta without ledger" 0 s.Trace.messages
  | _ -> Alcotest.fail "expected exactly one span"

let test_capacity_drops_are_counted () =
  let (), dump =
    Trace.profiled ~capacity:4 (fun () ->
        for i = 1 to 10 do
          Trace.point ~attrs:[ ("i", i) ] Trace.State "p"
        done)
  in
  checki "dropped" 6 dump.Trace.dropped;
  checki "kept" 4 (List.length (Trace.items dump));
  let jsonl = Trace.to_jsonl dump in
  checkb "meta line surfaces drops" true
    (let lines = String.split_on_char '\n' jsonl in
     List.exists (fun l -> l = "{\"dropped\":6,\"kind\":\"meta\"}") lines)

(* --- determinism --- *)

(* Four independent engine cells fanned out on the Exec pool; all
   randomness derives from the cell index, so the merged trace stream must
   be a pure function of the seeds. *)
let traced_workload ~jobs () =
  let (), dump =
    Trace.profiled (fun () ->
        ignore
          (Exec.par_map ~jobs
             (fun i ->
               let engine = small_engine (100 + i) in
               for _ = 1 to 2 do
                 ignore (Engine.join engine Node.Honest);
                 ignore (Engine.leave engine (Engine.random_node engine))
               done;
               Ledger.total_messages (Engine.ledger engine))
             [ 0; 1; 2; 3 ]))
  in
  dump

let test_jsonl_identical_across_reruns () =
  let a = Trace.to_jsonl (traced_workload ~jobs:1 ()) in
  let b = Trace.to_jsonl (traced_workload ~jobs:1 ()) in
  checkb "non-trivial trace" true (String.length a > 1000);
  checks "same seed, same bytes" a b

let test_jsonl_identical_across_jobs () =
  let seq = traced_workload ~jobs:1 () in
  let par = traced_workload ~jobs:4 () in
  checks "jsonl -j1 = -j4" (Trace.to_jsonl seq) (Trace.to_jsonl par);
  checks "chrome -j1 = -j4" (Trace.to_chrome seq) (Trace.to_chrome par);
  checks "report -j1 = -j4"
    (Trace.Report.render (Trace.Report.of_dump seq))
    (Trace.Report.render (Trace.Report.of_dump par))

(* --- ledger-delta consistency of the instrumented engines --- *)

(* Every charge the state engine makes during an operation happens inside
   that operation's top-level span, so the sum of top-level span deltas
   must equal the ledger's drift across the run. *)
let test_state_engine_span_deltas_cover_ledger () =
  let engine = small_engine 7 in
  let ledger = Engine.ledger engine in
  let before = Ledger.snapshot ledger in
  let (), dump =
    Trace.profiled (fun () ->
        for _ = 1 to 3 do
          ignore (Engine.join engine Node.Honest);
          ignore (Engine.leave engine (Engine.random_node engine));
          ignore (Engine.rand_cl engine ())
        done)
  in
  let d = Ledger.since ledger before in
  let top_msgs, top_rounds =
    List.fold_left
      (fun (m, r) item ->
        match item with
        | Trace.Span s when s.Trace.depth = 0 ->
          (m + s.Trace.messages, r + s.Trace.rounds)
        | _ -> (m, r))
      (0, 0) (Trace.items dump)
  in
  checki "top-level spans cover all messages" d.Ledger.messages top_msgs;
  checki "top-level spans cover all rounds" d.Ledger.rounds top_rounds

(* Same claim for the message-level engine: Ops.join/leave span the whole
   operation, so their deltas add up to everything the kernel charged. *)
let test_msg_engine_span_deltas_cover_ledger () =
  let rng = Rng.create 11L in
  let ledger = Ledger.create () in
  let cfg =
    Cluster.Config.build_uniform ~rng ~ledger ~n_clusters:4 ~cluster_size:10
      ~byz_per_cluster:1 ~overlay_degree:3 ()
  in
  let before = Ledger.snapshot ledger in
  let (), dump =
    Trace.profiled (fun () ->
        (match Cluster.Ops.join cfg ~node:999_999 ~contact:0 () with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "msg join failed");
        match Cluster.Ops.leave cfg ~node:999_999 () with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "msg leave failed")
  in
  let d = Ledger.since ledger before in
  let top_msgs =
    List.fold_left
      (fun m item ->
        match item with
        | Trace.Span s when s.Trace.depth = 0 -> m + s.Trace.messages
        | _ -> m)
      0 (Trace.items dump)
  in
  checki "join+leave spans cover all messages" d.Ledger.messages top_msgs

(* Both engines charge join.insert / exchange.view_update / leave.notify
   from the same cost formulas; after one operation each, at matching
   cluster geometry, the per-op label charges must be within a wide band
   of each other (E5 gates the tight band at scale). *)
let test_cross_engine_shared_labels () =
  let rng = Rng.create 17L in
  let msg_ledger = Ledger.create () in
  let cfg =
    Cluster.Config.build_uniform ~rng ~ledger:msg_ledger ~n_clusters:4
      ~cluster_size:16 ~byz_per_cluster:2 ~overlay_degree:3 ()
  in
  (match Cluster.Ops.join cfg ~node:999_999 ~contact:0 () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "msg join failed");
  (match Cluster.Ops.leave cfg ~node:999_999 () with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "msg leave failed");
  (* k=3, N=2^5 gives a target size of 15 ~ the kernel's 16 above. *)
  let params = Params.make ~n_max:(1 lsl 5) ~k:3 ~tau:0.15 () in
  let rng = Rng.create 18L in
  let engine = Engine.create ~seed:18L params ~initial:(population rng 64 0.15) in
  let state_ledger = Engine.ledger engine in
  let s0 =
    List.map
      (fun l -> Ledger.label_messages state_ledger l)
      [ "join.insert"; "exchange.view_update"; "leave.notify" ]
  in
  ignore (Engine.join engine Node.Honest);
  ignore (Engine.leave engine (Engine.random_node engine));
  List.iter2
    (fun label before ->
      let m = Ledger.label_messages msg_ledger label in
      let s = Ledger.label_messages state_ledger label - before in
      checkb (label ^ " charged by the kernel") true (m > 0);
      checkb (label ^ " charged by the engine") true (s > 0);
      let ratio = float_of_int s /. float_of_int m in
      checkb
        (Printf.sprintf "%s per-op ratio %.2f within [0.02, 50]" label ratio)
        true
        (ratio > 0.02 && ratio < 50.0))
    [ "join.insert"; "exchange.view_update"; "leave.notify" ]
    s0

(* --- report histogram edge cases ---
   Regression coverage: an empty dump, a single sample and an
   all-identical sample set used to reach the fixed-bin histogram's
   create with no data or with hi = lo; the report must render all
   three. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_report_empty_dump () =
  let (), dump = Trace.profiled (fun () -> ()) in
  let rendered = Trace.Report.render (Trace.Report.of_dump dump) in
  checkb "empty dump renders without raising" true (String.length rendered >= 0)

let test_report_single_sample () =
  let ledger = Ledger.create () in
  let (), dump =
    Trace.profiled (fun () ->
        Trace.with_span ~ledger Trace.State "solo" (fun () ->
            Ledger.charge ledger ~label:"x" ~messages:3 ~rounds:1))
  in
  let rendered = Trace.Report.render (Trace.Report.of_dump dump) in
  checkb "single-sample report names the span" true (contains rendered "solo")

let test_report_identical_samples () =
  (* Five spans with identical (zero) self-cost: the distribution is
     degenerate, hi = lo. *)
  let (), dump =
    Trace.profiled (fun () ->
        for _ = 1 to 5 do
          Trace.with_span Trace.State "same" (fun () -> ())
        done)
  in
  let rendered = Trace.Report.render (Trace.Report.of_dump dump) in
  checkb "degenerate distribution renders" true (contains rendered "same")

(* The exact report bytes for the three histogram shapes the report
   draws: a multi-bin series (eight spans, rounds 1..21), an all-equal
   series (three spans of 4 rounds, drawn over [4, 5)) and a
   single-sample series. *)
let expected_report =
  String.concat "\n"
    [
      "== per-primitive profile (by self messages) ==";
      "+-----------+-------+-------+------+-----------+--------+-------------+------------+------------+";
      "| primitive | layer | spans | msgs | self msgs | rounds | self rounds | p50 rounds | p95 rounds |";
      "+-----------+-------+-------+------+-----------+--------+-------------+------------+------------+";
      "| multi     | state | 8     | 800  | 800       | 55     | 55          | 5.00       | 21.00      |";
      "| equal     | msg   | 3     | 150  | 150       | 12     | 12          | 4.00       | 4.00       |";
      "| single    | state | 1     | 10   | 10        | 7      | 7           | 7.00       | 7.00       |";
      "+-----------+-------+-------+------+-----------+--------+-------------+------------+------------+";
      "";
      "round-latency histogram: multi [state]";
      "[       1,     2.67)       3 ########################################";
      "[    2.67,     4.33)       1 #############";
      "[    4.33,        6)       1 #############";
      "[       6,     7.67)       0 ";
      "[    7.67,     9.33)       1 #############";
      "[    9.33,       11)       0 ";
      "[      11,     12.7)       0 ";
      "[    12.7,     14.3)       1 #############";
      "[    14.3,       16)       0 ";
      "[      16,     17.7)       0 ";
      "[    17.7,     19.3)       0 ";
      "[    19.3,       21)       1 #############";
      "";
      "round-latency histogram: equal [msg]";
      "[       4,     4.08)       3 ########################################";
      "";
      "round-latency histogram: single [state]";
      "[       7,     7.08)       1 ########################################";
      "";
    ]

let test_report_histogram_bytes () =
  let ledger = Ledger.create () in
  let span layer name ~messages ~rounds =
    Trace.with_span ~ledger layer name (fun () ->
        Ledger.charge ledger ~label:name ~messages ~rounds)
  in
  let (), dump =
    Trace.profiled (fun () ->
        List.iter
          (fun rounds -> span Trace.State "multi" ~messages:100 ~rounds)
          [ 1; 2; 2; 3; 5; 8; 13; 21 ];
        for _ = 1 to 3 do
          span Trace.Msg "equal" ~messages:50 ~rounds:4
        done;
        span Trace.State "single" ~messages:10 ~rounds:7)
  in
  checks "report bytes" expected_report
    (Trace.Report.render (Trace.Report.of_dump dump))

(* --- qcheck: spans nest properly for arbitrary call trees --- *)

type tree = T of int * tree list

let rec count_tree (T (_, kids)) = 1 + List.fold_left (fun a k -> a + count_tree k) 0 kids

let tree_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let charge = int_range 0 20 in
           if n <= 0 then map (fun m -> T (m, [])) charge
           else
             map2
               (fun m kids -> T (m, kids))
               charge
               (list_size (int_range 0 3) (self (n / 2)))))

let rec run_tree ledger (T (m, kids)) =
  Trace.with_span ~ledger Trace.State "node" (fun () ->
      Metrics.Ledger.charge ledger ~label:"x" ~messages:m ~rounds:0;
      List.iter (run_tree ledger) kids)

let prop_spans_nest =
  QCheck.Test.make ~name:"spans nest and conserve ledger deltas" ~count:100
    (QCheck.make ~print:(fun t -> string_of_int (count_tree t)) tree_gen)
    (fun t ->
      let ledger = Ledger.create () in
      let (), dump = Trace.profiled (fun () -> run_tree ledger t) in
      let spans =
        List.filter_map
          (function Trace.Span s -> Some s | Trace.Mark _ -> None)
          (Trace.items dump)
      in
      let total = Ledger.total_messages ledger in
      List.length spans = count_tree t
      && List.for_all (fun s -> s.Trace.self_messages >= 0) spans
      && List.fold_left (fun a s -> a + s.Trace.self_messages) 0 spans = total
      && List.fold_left
           (fun a s -> if s.Trace.depth = 0 then a + s.Trace.messages else a)
           0 spans
         = total
      (* Any two span intervals are either disjoint or nested. *)
      && List.for_all
           (fun s1 ->
             List.for_all
               (fun s2 ->
                 s1.Trace.seq = s2.Trace.seq
                 || s1.Trace.end_seq <= s2.Trace.seq
                 || s2.Trace.end_seq <= s1.Trace.seq
                 || (s1.Trace.seq < s2.Trace.seq
                    && s2.Trace.end_seq <= s1.Trace.end_seq)
                 || (s2.Trace.seq < s1.Trace.seq
                    && s1.Trace.end_seq <= s2.Trace.end_seq))
               spans)
           spans
      (* Depth equals the number of strictly-enclosing spans. *)
      && List.for_all
           (fun s ->
             s.Trace.depth
             = List.length
                 (List.filter
                    (fun p ->
                      p.Trace.seq < s.Trace.seq
                      && p.Trace.end_seq >= s.Trace.end_seq)
                    spans))
           spans)

let suite =
  [
    Alcotest.test_case "inactive collector is a no-op" `Quick test_inactive_is_noop;
    Alcotest.test_case "span reconstruction" `Quick test_span_reconstruction;
    Alcotest.test_case "span closes on exception" `Quick test_span_closes_on_exception;
    Alcotest.test_case "capacity drops are counted" `Quick test_capacity_drops_are_counted;
    Alcotest.test_case "jsonl identical across reruns" `Quick
      test_jsonl_identical_across_reruns;
    Alcotest.test_case "jsonl identical across -j" `Quick
      test_jsonl_identical_across_jobs;
    Alcotest.test_case "state spans cover the ledger" `Quick
      test_state_engine_span_deltas_cover_ledger;
    Alcotest.test_case "msg spans cover the ledger" `Quick
      test_msg_engine_span_deltas_cover_ledger;
    Alcotest.test_case "cross-engine shared labels" `Quick
      test_cross_engine_shared_labels;
    Alcotest.test_case "report renders an empty dump" `Quick
      test_report_empty_dump;
    Alcotest.test_case "report renders a single sample" `Quick
      test_report_single_sample;
    Alcotest.test_case "report renders identical samples" `Quick
      test_report_identical_samples;
    Alcotest.test_case "report histogram bytes" `Quick
      test_report_histogram_bytes;
    QCheck_alcotest.to_alcotest prop_spans_nest;
  ]
