(* The benchmark's own tests: a raising call is a counted failure, not
   the end of a run; the deterministic end-to-end metrics repeat exactly
   for a seed (and on state-scale for any Exec domain count); the traced
   run's child spans cover its steps. *)

open Perfbench
module W = Workload

let spec name = Option.get (W.find name)

let test_call_raises () =
  let ctx = W.ctx () and k = W.kind "probe" in
  let r = W.call ctx k (fun () -> invalid_arg "boom") in
  Alcotest.(check bool) "no result" true (r = None);
  Alcotest.(check int) "raised" 1 k.raised;
  Alcotest.(check int) "counted as failed" 1 k.fails;
  Alcotest.(check (option int)) "next call runs" (Some 7) (W.call ctx k (fun () -> 7));
  Alcotest.(check int) "calls" 2 k.calls

(* The [primitives] geometry (6 x 12 clusters, equivocating members)
   drains under paired churn until randNum raises on an empty cluster —
   a known library defect the benchmark must survive and count. *)
let test_drain_survives () =
  let drain =
    {
      (spec "msg-byz") with
      W.name = "primitives";
      warmup = 0;
      setups = 1;
      make = (fun ~seed -> W.msg ~spec:Scenario.primitives ~replicas:1 ~seed ());
    }
  in
  let r = Bench.untraced drain ~seed:2 ~steps:300 in
  Alcotest.(check int) "every step ran" 300 r.phase.steps;
  Alcotest.(check bool) "raised calls were counted" true (r.phase.raised > 0);
  Alcotest.(check bool) "and are failures" true (r.phase.det.failed_op_share > 0.0)

let det_fields ~alloc (d : Bench.det) =
  [
    ("failed_op_share", d.failed_op_share);
    ("safety_breaches_per_kstep", d.safety_breaches_per_kstep);
    ("sim_msgs_per_step", d.sim_msgs_per_step);
    ("sim_time_per_step", d.sim_time_per_step);
  ]
  @ if alloc then [ ("alloc_words_per_step", d.alloc_words_per_step) ] else []

let brief ?warmup name ~steps ~jobs =
  let s = { (spec name) with W.setups = 1; jobs } in
  let s = match warmup with Some warmup -> { s with warmup } | None -> s in
  (Bench.untraced s ~seed:5 ~steps).phase.det

let same name a b =
  List.iter2
    (fun (field, x) (_, y) ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "%s %s" name field) x y)
    a b

let test_repeat ?warmup name ~steps () =
  let run () = det_fields ~alloc:true (brief ?warmup name ~steps ~jobs:1) in
  same name (run ()) (run ())

(* Warm-up ends at step 100, so 1000 timed steps include an epoch and
   ten monitor/audit calls. *)
let test_scale_jobs () =
  let run jobs = brief "state-scale" ~steps:1000 ~jobs in
  let one = run 1 in
  same "state-scale j1/j1" (det_fields ~alloc:true one) (det_fields ~alloc:true (run 1));
  same "state-scale j1/j2" (det_fields ~alloc:false one) (det_fields ~alloc:false (run 2))

let test_traced_coverage () =
  let s = { (spec "async-straggler") with W.warmup = 2 } in
  let t = Bench.traced s ~seed:3 ~steps:12 in
  let value name =
    let _, v, _ = List.find (fun (n, _, _) -> n = name) t.layers in
    v
  in
  Alcotest.(check (float 0.0)) "steps" 12.0 (value "bench.steps");
  Alcotest.(check bool) "children cover >= 95% of each step" true
    (value "bench.step_self_share" <= 0.05);
  Alcotest.(check bool) "every call span has its step as parent" true
    (List.for_all
       (fun (sp : Spans.span) ->
         sp.parent < 0
         || List.exists (fun (p : Spans.span) -> p.id = sp.parent && p.step = sp.step) t.spans)
       t.spans)

let () =
  Alcotest.run "perfbench"
    [
      ( "failures",
        [
          Alcotest.test_case "raising call is a failed call" `Quick test_call_raises;
          Alcotest.test_case "drained geometry keeps running" `Quick test_drain_survives;
        ] );
      ( "determinism",
        [
          (* Without warm-up, the first steps include the exchanges of
             systems 0 and 1. *)
          Alcotest.test_case "msg-byz repeats" `Quick
            (test_repeat ~warmup:0 "msg-byz" ~steps:8);
          Alcotest.test_case "async-straggler repeats" `Quick
            (test_repeat "async-straggler" ~steps:20);
          Alcotest.test_case "state-scale repeats at 1 and 2 domains" `Quick test_scale_jobs;
        ] );
      ("trace", [ Alcotest.test_case "spans cover steps" `Quick test_traced_coverage ]);
    ]
