(* Tests for runtime telemetry and its feeds: the log-bucketed histogram
   (Metrics.Histogram.Buckets) against the exact sorted-sample oracle
   (Metrics.Histogram.Samples), the async session's per-primitive latency
   accounting, Exec-pool introspection counters, the zero-perturbation
   contract (telemetry enabled changes no gated byte), and the
   bench_diff/bench_report script exit codes. *)

module H = Metrics.Histogram.Buckets
module Samples = Metrics.Histogram.Samples
module Session = Asim.Session
module Config = Cluster.Config
module Graph = Dsgraph.Graph
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* ---------- histogram vs exact oracle ---------- *)

let positive_obs =
  (* Spans the bucket table: sub-bucket_lo, unit-scale, and huge. *)
  QCheck.(
    list_of_size (QCheck.Gen.int_range 1 200)
      (oneof [ float_range 1e-12 1e-6; float_range 0.001 100.0; float_range 1e3 1e9 ]))

let prop_count_sum_max_exact =
  QCheck.Test.make ~name:"histogram count/max exact vs oracle" ~count:300
    positive_obs (fun obs ->
      let h = H.create () in
      let s = Samples.create () in
      List.iter
        (fun v ->
          H.add h v;
          Samples.add s v)
        obs;
      H.count h = Samples.count s
      && H.max_value h = List.fold_left Float.max neg_infinity obs
      && Float.abs (H.sum h -. List.fold_left ( +. ) 0.0 obs)
         <= 1e-9 *. Float.abs (H.sum h))

(* The exact nearest-rank percentile over the sorted observations — the
   statistic Metrics.Histogram.Buckets estimates (Samples.percentile
   interpolates on a different rank rule, so the oracle is computed
   directly). *)
let exact_percentile obs p =
  let sorted = List.sort compare obs in
  let n = List.length sorted in
  let k =
    let r = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    if r < 1 then 1 else if r > n then n else r
  in
  List.nth sorted (k - 1)

let prop_percentile_within_one_bucket =
  QCheck.Test.make
    ~name:"percentile estimate within one bucket ratio of the exact value"
    ~count:300
    QCheck.(pair positive_obs (float_range 0.0 100.0))
    (fun (obs, p) ->
      let h = H.create () in
      List.iter (H.add h) obs;
      let exact = exact_percentile obs p in
      let est = H.percentile h p in
      (* Below the first edge the estimate collapses to bucket 0. *)
      if exact <= H.bucket_lo then est <= H.bucket_lo
      else exact <= est && est <= exact *. H.growth)

let prop_merge_equals_sequential =
  QCheck.Test.make ~name:"merge equals recording both streams" ~count:200
    QCheck.(pair positive_obs positive_obs)
    (fun (xs, ys) ->
      let ha = H.create () and hb = H.create () and hall = H.create () in
      List.iter (H.add ha) xs;
      List.iter (H.add hb) ys;
      List.iter (H.add hall) (xs @ ys);
      let m = H.merge ha hb in
      H.count m = H.count hall
      && H.max_value m = H.max_value hall
      && H.buckets m = H.buckets hall
      && List.for_all
           (fun p -> H.percentile m p = H.percentile hall p)
           [ 0.0; 50.0; 90.0; 99.0; 100.0 ]
      (* inputs are not mutated *)
      && H.count ha = List.length xs
      && H.count hb = List.length ys)

let test_histogram_edges () =
  let h = H.create () in
  checkb "empty percentile is nan" true (Float.is_nan (H.percentile h 50.0));
  checkb "empty max is nan" true (Float.is_nan (H.max_value h));
  checkb "empty mean is nan" true (Float.is_nan (H.mean h));
  checki "empty count" 0 (H.count h);
  H.add h 3.25;
  checki "single count" 1 (H.count h);
  (* Clamping to the exact max makes single-value percentiles exact. *)
  List.iter
    (fun p ->
      Alcotest.check (Alcotest.float 0.0) "single-value percentile exact" 3.25
        (H.percentile h p))
    [ 0.0; 50.0; 100.0 ];
  (match H.buckets h with
  | [ (lo, hi, 1) ] -> checkb "3.25 within its bucket" true (lo < 3.25 && 3.25 <= hi)
  | _ -> Alcotest.fail "expected exactly one non-empty bucket");
  (try
     ignore (H.percentile h 100.5);
     Alcotest.fail "percentile above 100 must raise"
   with Invalid_argument _ -> ());
  (* Zeros, negatives and NaN land in bucket 0 without corrupting state. *)
  let z = H.create () in
  H.add z 0.0;
  H.add z (-4.0);
  H.add z Float.nan;
  checki "degenerate observations counted" 3 (H.count z);
  checkb "degenerate percentile in bucket 0" true
    (H.percentile z 50.0 <= H.bucket_lo)

(* ---------- async session latency accounting ---------- *)

let pair_config ~rng =
  let src = List.init 9 (fun i -> i) in
  let dst = List.init 9 (fun i -> 100 + i) in
  let overlay = Graph.create () in
  ignore (Graph.add_edge overlay 0 1);
  Config.make ~rng
    ~byzantine:(fun _ -> None)
    ~clusters:[ (0, src); (1, dst) ]
    ~overlay ()

let test_session_latency_accounting () =
  let cfg = pair_config ~rng:(Rng.of_int 41) in
  let s =
    Session.create ~rng:(Rng.of_int 42) ~delay:(Asim.Delay.Uniform { mean = 1.0 }) cfg
  in
  ignore (Session.transmit s ~src_cluster:0 ~dst_cluster:1 ~payload:7 ());
  ignore (Session.randnum s ~cluster:0 ~range:100);
  ignore (Session.randnum s ~cluster:1 ~range:100);
  checkb "labels recorded" true
    (Session.latency_labels s = [ "randnum"; "valchan" ]);
  (match Session.latency s ~label:"randnum" with
  | None -> Alcotest.fail "randnum histogram missing"
  | Some h -> checki "two randnum sessions" 2 (H.count h));
  let all = Session.latency_all s in
  checki "merge covers every sub-session" 3 (H.count all);
  checkb "p99 positive under real delays" true (Session.latency_p99 s > 0.0);
  checkb "clock is the sum of recorded makespans" true
    (Float.abs (H.sum all -. Session.clock s) <= 1e-9 *. Session.clock s);
  checkb "queue peak seen" true (Session.queue_peak s > 0);
  checkb "inflight peak seen" true (Session.inflight_peak s > 0);
  checki "per-label timeouts sum to the session total"
    (Session.timeouts s)
    (List.fold_left
       (fun acc l -> acc + Session.timeouts_for s ~label:l)
       0
       (Session.latency_labels s))

(* Under zero delay every makespan is 0: the histogram must report exact
   zeros (bucket 0), matching the sync-equivalence contract. *)
let test_session_latency_zero_delay () =
  let cfg = pair_config ~rng:(Rng.of_int 51) in
  let s = Session.create ~rng:(Rng.of_int 52) ~delay:Asim.Delay.Zero cfg in
  ignore (Session.transmit s ~src_cluster:0 ~dst_cluster:1 ~payload:7 ());
  Alcotest.check (Alcotest.float 0.0) "zero-delay p99 is exactly 0" 0.0
    (Session.latency_p99 s)

(* The async driver's stat line carries lat_p99; the synchronous engines
   keep their historical byte-exact shape. *)
let test_summary_lat_p99 () =
  let contains ~needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let async_results = Scenario.cells ~engine:`Async ~seed:7 ~cells:1 Scenario.steady in
  let msg_results = Scenario.cells ~engine:`Msg ~seed:7 ~cells:1 Scenario.steady in
  List.iter
    (fun (_, s) ->
      checkb "async summary carries lat_p99=" true
        (contains ~needle:" lat_p99=" (Scenario.Stats.summary s)))
    async_results;
  List.iter
    (fun (_, s) ->
      checkb "sync summary untouched" false
        (contains ~needle:"lat_p99" (Scenario.Stats.summary s)))
    msg_results

(* ---------- Exec pool introspection ---------- *)

let test_exec_stats () =
  Exec.reset_stats ();
  let zero = Exec.stats () in
  checki "reset clears par_calls" 0 zero.Exec.par_calls;
  checki "reset clears tasks" 0 zero.Exec.tasks;
  let out = Exec.par_map ~jobs:2 (fun x -> x * x) [ 1; 2; 3; 4; 5 ] in
  Alcotest.check (Alcotest.list Alcotest.int) "par_map result unchanged"
    [ 1; 4; 9; 16; 25 ] out;
  let s = Exec.stats () in
  checki "one par_map call" 1 s.Exec.par_calls;
  checki "every task counted" 5 s.Exec.tasks;
  checki "caller + workers account for every task" 5
    (s.Exec.caller_tasks + Array.fold_left ( + ) 0 s.Exec.worker_tasks);
  checkb "wall counters non-negative" true
    (s.Exec.queue_wait_s >= 0.0 && s.Exec.merge_stall_s >= 0.0);
  ignore (Exec.par_map ~jobs:1 (fun x -> x) [ 1; 2 ]);
  let s2 = Exec.stats () in
  checki "sequential path counts calls too" 2 s2.Exec.par_calls;
  checki "sequential path counts tasks" 7 s2.Exec.tasks;
  Exec.reset_stats ()

(* ---------- zero perturbation ---------- *)

(* Telemetry fully enabled (monitor + alloc-profiled tracing) must leave
   every gated byte alone: driver stats (the stat-line source) and the
   engine snapshot under the state driver are compared against a bare
   run. *)
let test_telemetry_zero_perturbation () =
  let run ~telemetry =
    let go () =
      let d = Scenario.Async_driver.create ~seed:11L Scenario.steady in
      for time = 0 to 19 do
        Scenario.Async_driver.step d ~time;
        Scenario.Async_driver.sample d ~time
      done;
      let stats = Scenario.Async_driver.stats d in
      let e = Scenario.State_driver.create ~seed:11L Scenario.steady in
      for time = 0 to 19 do
        Scenario.State_driver.step e ~time
      done;
      (stats, Now_core.Engine.save (Scenario.State_driver.engine e))
    in
    if telemetry then begin
      let store = Monitor.create () in
      Trace.start ~profile_alloc:true ();
      let r = Monitor.with_monitor store go in
      ignore (Trace.stop ());
      checkb "monitor sampled asim latency" true
        (List.exists
           (fun (s : Monitor.Store.sample) ->
             s.Monitor.Store.series = "asim.lat.p99")
           (Monitor.Store.samples store));
      r
    end
    else go ()
  in
  let plain = run ~telemetry:false in
  let telemetered = run ~telemetry:true in
  checkb "driver stats and engine snapshot identical under full telemetry"
    true (plain = telemetered)

(* The exact asim.lat.* gauge values of one seeded straggler cell,
   stepped and sampled under a monitor: bucket edges, the nearest-rank
   rule and the clamp to the exact max all show in these numbers. *)
let expected_latency_gauges =
  [
    "t=5 asim.lat.max exchange.announce 1.4738623914975739";
    "t=11 asim.lat.max exchange.announce 1.4738623914975739";
    "t=5 asim.lat.max randnum 8";
    "t=11 asim.lat.max randnum 8";
    "t=5 asim.lat.max walk.token 8";
    "t=11 asim.lat.max walk.token 8";
    "t=5 asim.lat.p50 exchange.announce 1.4738623914975739";
    "t=11 asim.lat.p50 exchange.announce 1.4738623914975739";
    "t=5 asim.lat.p50 randnum 6.0740009999520987";
    "t=11 asim.lat.p50 randnum 6.0740009999520987";
    "t=5 asim.lat.p50 walk.token 1.5185002499880247";
    "t=11 asim.lat.p50 walk.token 1.5185002499880247";
    "t=5 asim.lat.p90 exchange.announce 1.4738623914975739";
    "t=11 asim.lat.p90 exchange.announce 1.4738623914975739";
    "t=5 asim.lat.p90 randnum 8";
    "t=11 asim.lat.p90 randnum 8";
    "t=5 asim.lat.p90 walk.token 1.5185002499880247";
    "t=11 asim.lat.p90 walk.token 1.5185002499880247";
    "t=5 asim.lat.p99 exchange.announce 1.4738623914975739";
    "t=11 asim.lat.p99 exchange.announce 1.4738623914975739";
    "t=5 asim.lat.p99 randnum 8";
    "t=11 asim.lat.p99 randnum 8";
    "t=5 asim.lat.p99 walk.token 8";
    "t=11 asim.lat.p99 walk.token 8";
    "t=5 asim.lat.timeouts exchange.announce 0";
    "t=11 asim.lat.timeouts exchange.announce 0";
    "t=5 asim.lat.timeouts randnum 31";
    "t=11 asim.lat.timeouts randnum 70";
    "t=5 asim.lat.timeouts walk.token 2";
    "t=11 asim.lat.timeouts walk.token 2";
  ]

let test_latency_gauges_pinned () =
  let spec =
    { Scenario.steady with Scenario.Spec.delay = Some "straggler:every=4,factor=8" }
  in
  let store = Monitor.create () in
  Monitor.with_monitor store (fun () ->
      let d = Scenario.Async_driver.create ~seed:3L spec in
      for time = 0 to 11 do
        Scenario.Async_driver.step d ~time;
        if time mod 6 = 5 then Scenario.Async_driver.sample d ~time
      done);
  let lat =
    List.filter_map
      (fun (s : Monitor.Store.sample) ->
        if String.starts_with ~prefix:"asim.lat." s.series then
          Some
            (Printf.sprintf "t=%d %s %s %.17g" s.time s.series
               (List.assoc "primitive" s.labels)
               s.value)
        else None)
      (Monitor.Store.samples store)
  in
  Alcotest.(check (list string)) "asim.lat.* samples" expected_latency_gauges lat

(* ---------- script exit codes ---------- *)

let scripts_available =
  Sys.file_exists "../scripts/bench_diff.exe"
  && Sys.file_exists "../scripts/bench_report.exe"

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let monitor_json ?extra_experiment ?(samples = 10) ~ok ~wall () =
  Printf.sprintf
    {|{
  "format": 1,
  "mode": "quick",
  "experiments": [
    {"id": "E1", "ok": %b, "rows": 6, "wall_seconds": %s, "alloc_bytes": 1000000}%s
  ],
  "invariants": {
    "samples": %d,
    "violations": 0,
    "honest_frac_min": 0.9,
    "cluster_size_max": 20,
    "overlay_degree_max": 6,
    "expansion_min": 0.5,
    "violations_by_invariant": {}
  }
}
|}
    ok
    (match wall with Some w -> Printf.sprintf "%.3f" w | None -> "null")
    (match extra_experiment with
    | None -> ""
    | Some id ->
      Printf.sprintf
        ",\n    {\"id\": %S, \"ok\": true, \"rows\": 2, \"wall_seconds\": \
         3.0, \"alloc_bytes\": 2000000}"
        id)
    samples

let run_script cmd = Sys.command (cmd ^ " > /dev/null 2>&1")

let test_bench_diff_exit_codes () =
  if not scripts_available then () (* exercised via dune runtest deps *)
  else begin
    let base = Filename.temp_file "benchdiff_base" ".json" in
    let same = Filename.temp_file "benchdiff_same" ".json" in
    let drift = Filename.temp_file "benchdiff_drift" ".json" in
    let broken = Filename.temp_file "benchdiff_broken" ".json" in
    let added = Filename.temp_file "benchdiff_added" ".json" in
    let agg_drift = Filename.temp_file "benchdiff_agg" ".json" in
    let null_wall = Filename.temp_file "benchdiff_null" ".json" in
    write_file base (monitor_json ~ok:true ~wall:(Some 1.0) ());
    write_file same (monitor_json ~ok:true ~wall:(Some 1.2) ());
    write_file drift (monitor_json ~ok:false ~wall:(Some 9.0) ());
    write_file broken "{ not json";
    (* A newly registered experiment (E15-style) legitimately moves the
       run-wide invariant aggregates: informational, exit 0. *)
    write_file added
      (monitor_json ~extra_experiment:"E15" ~samples:14 ~ok:true ~wall:(Some 1.0) ());
    (* The same aggregate movement with no addition is real drift. *)
    write_file agg_drift (monitor_json ~samples:14 ~ok:true ~wall:(Some 1.0) ());
    (* A null wall time reads as nan, which every comparison passes. *)
    write_file null_wall (monitor_json ~ok:true ~wall:None ());
    let diff a b =
      run_script
        (Printf.sprintf "../scripts/bench_diff.exe %s %s"
           (Filename.quote a) (Filename.quote b))
    in
    checki "identical runs exit 0" 0 (diff base same);
    checki "regression exits 1" 1 (diff base drift);
    checki "format error exits 2" 2 (diff base broken);
    checki "missing file exits 2" 2 (diff base "/nonexistent/nope.json");
    checki "new experiment rows stay informational" 0 (diff base added);
    checki "aggregate drift without additions blocks" 1 (diff base agg_drift);
    checki "null wall time is a format error" 2 (diff base null_wall);
    List.iter Sys.remove [ base; same; drift; broken; added; agg_drift; null_wall ]
  end

let test_bench_report_smoke () =
  if not scripts_available then ()
  else begin
    let hist = Filename.temp_file "benchhist" ".jsonl" in
    let out = Filename.temp_file "benchreport" ".html" in
    write_file hist
      ({|{"format": 1, "mode": "quick", "stamp": 100, "experiments": [{"id": "E1", "ok": true, "wall_seconds": 1.0, "alloc_bytes": 5000000, "peak_live_words": 3000000}]}|}
     ^ "\n"
     ^ {|{"format": 1, "mode": "quick", "stamp": 200, "experiments": [{"id": "E1", "ok": false, "wall_seconds": 1.5}]}|}
     ^ "\n");
    checki "bench_report renders two runs" 0
      (run_script
         (Printf.sprintf "../scripts/bench_report.exe %s %s"
            (Filename.quote hist) (Filename.quote out)));
    let ic = open_in out in
    let html = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let contains needle hay =
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0
    in
    checkb "report embeds SVG charts" true (contains "<svg" html);
    checkb "report names the experiment" true (contains "E1" html);
    checkb "report renders the live-words trend" true
      (contains "Mw live" html);
    checki "empty history is a format error" 2
      (run_script
         (Printf.sprintf "../scripts/bench_report.exe %s %s"
            (Filename.quote "/dev/null") (Filename.quote out)));
    Sys.remove hist;
    Sys.remove out
  end

(* bench_report's whole document for a fixed history: three runs, two
   ids, a failing run, a run without alloc_bytes and peak_live_words, and
   an id that needs escaping. *)
let test_bench_report_golden () =
  if not scripts_available then ()
  else begin
    let out = Filename.temp_file "benchreport" ".html" in
    checki "bench_report renders the golden history" 0
      (run_script
         (Printf.sprintf "../scripts/bench_report.exe golden/bench_history.jsonl %s"
            (Filename.quote out)));
    let slurp path = In_channel.with_open_bin path In_channel.input_all in
    Alcotest.(check string)
      "golden/bench_report.html" (slurp "golden/bench_report.html") (slurp out);
    Sys.remove out
  end

(* Bad history lines are refused with their line number, counting blank
   lines, and a null wall time is refused rather than drawn as nan. *)
let test_bench_report_bad_lines () =
  if not scripts_available then ()
  else begin
    let hist = Filename.temp_file "benchhist" ".jsonl" in
    let out = Filename.temp_file "benchreport" ".html" in
    let err = Filename.temp_file "script_stderr" ".txt" in
    List.iter
      (fun (what, contents, expected) ->
        write_file hist contents;
        checki (what ^ ": exit 2") 2
          (Sys.command
             (Printf.sprintf "../scripts/bench_report.exe %s %s > /dev/null 2> %s"
                (Filename.quote hist) (Filename.quote out) (Filename.quote err)));
        let stderr = In_channel.with_open_bin err In_channel.input_all in
        Alcotest.(check string) (what ^ ": stderr") expected stderr)
      [
        ( "blank first line",
          "\n{\"format\": 2}\n",
          "bench_report: format error: line 2: unknown format version\n" );
        ( "null wall time",
          {|{"format": 1, "mode": "quick", "stamp": 1, "experiments": [{"id": "E1", "ok": true, "wall_seconds": null}]}|}
          ^ "\n",
          "bench_report: format error: line 1: \"wall_seconds\" is not a finite number\n"
        );
      ];
    List.iter Sys.remove [ hist; out; err ]
  end

(* A path that exists but cannot be read as a file is reported like a
   malformed file: exit 2 and a format error on stderr, no exception. *)
let test_scripts_reject_a_directory () =
  if not scripts_available then ()
  else begin
    let dir = Filename.get_temp_dir_name () in
    let err = Filename.temp_file "script_stderr" ".txt" in
    let run cmd =
      Sys.command (Printf.sprintf "%s > /dev/null 2> %s" cmd (Filename.quote err))
    in
    let stderr_says_format_error () =
      let ic = open_in err in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let needle = "format error" in
      let nl = String.length needle in
      let rec go i =
        i + nl <= String.length text && (String.sub text i nl = needle || go (i + 1))
      in
      go 0
    in
    checki "bench_diff on a directory exits 2" 2
      (run
         (Printf.sprintf "../scripts/bench_diff.exe %s %s" (Filename.quote dir)
            (Filename.quote dir)));
    checkb "bench_diff reports a format error" true (stderr_says_format_error ());
    checki "bench_report on a directory exits 2" 2
      (run
         (Printf.sprintf "../scripts/bench_report.exe %s %s" (Filename.quote dir)
            (Filename.quote (Filename.concat dir "unused.html"))));
    checkb "bench_report reports a format error" true (stderr_says_format_error ());
    (* An output that cannot be written is reported the same way, a write
       error that only shows when the file is closed included. *)
    let hist = Filename.temp_file "benchhist" ".jsonl" in
    write_file hist
      ({|{"format": 1, "mode": "quick", "stamp": 100, "experiments": [{"id": "E1", "ok": true, "wall_seconds": 1.0}]}|}
     ^ "\n");
    List.iter
      (fun (what, out) ->
        checki ("bench_report to " ^ what ^ " exits 2") 2
          (run
             (Printf.sprintf "../scripts/bench_report.exe %s %s"
                (Filename.quote hist) (Filename.quote out)));
        checkb ("bench_report to " ^ what ^ " reports a format error") true
          (stderr_says_format_error ()))
      ([ ("a missing directory", "/nonexistent/x.html"); ("a directory", dir) ]
      @ if Sys.file_exists "/dev/full" then [ ("a full device", "/dev/full") ] else []);
    Sys.remove hist;
    Sys.remove err
  end

let suite =
  [
    QCheck_alcotest.to_alcotest prop_count_sum_max_exact;
    QCheck_alcotest.to_alcotest prop_percentile_within_one_bucket;
    QCheck_alcotest.to_alcotest prop_merge_equals_sequential;
    Alcotest.test_case "histogram edge cases" `Quick test_histogram_edges;
    Alcotest.test_case "session latency accounting" `Quick
      test_session_latency_accounting;
    Alcotest.test_case "zero-delay latency is exactly zero" `Quick
      test_session_latency_zero_delay;
    Alcotest.test_case "async stat line carries lat_p99" `Slow
      test_summary_lat_p99;
    Alcotest.test_case "exec pool introspection" `Quick test_exec_stats;
    Alcotest.test_case "telemetry is zero-perturbation" `Slow
      test_telemetry_zero_perturbation;
    Alcotest.test_case "latency gauges pinned" `Quick
      test_latency_gauges_pinned;
    Alcotest.test_case "bench_diff exit codes" `Quick
      test_bench_diff_exit_codes;
    Alcotest.test_case "bench_report smoke" `Quick test_bench_report_smoke;
    Alcotest.test_case "bench_report golden document" `Quick
      test_bench_report_golden;
    Alcotest.test_case "bench_report refuses bad lines" `Quick
      test_bench_report_bad_lines;
    Alcotest.test_case "bench scripts reject a directory" `Quick
      test_scripts_reject_a_directory;
  ]
