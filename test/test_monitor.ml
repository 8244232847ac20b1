(* Tests for lib/monitor: the violation path (a corrupted fraction above
   the paper's threshold must breach the honest-fraction bound; one within
   tolerance must not), byte-determinism of every exporter across reruns
   and worker counts, cadence gating, and the zero-perturbation guarantee
   (an experiment's table is byte-identical with monitoring on or off). *)

module Engine = Now_core.Engine
module Params = Now_core.Params
module Node = Now_core.Node
module Rng = Prng.Rng
module Store = Monitor.Store

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let population rng n tau =
  List.init n (fun _ -> if Rng.bernoulli rng tau then Node.Byzantine else Node.Honest)

let small_engine seed =
  let params =
    Params.make ~n_max:(1 lsl 10) ~k:3 ~tau:0.15 ~walk_mode:Params.Direct_sample ()
  in
  let rng = Rng.create (Int64.of_int (seed + 13)) in
  Engine.create ~seed:(Int64.of_int seed) params ~initial:(population rng 120 0.15)

let msg_config ~seed ~byz_per_cluster =
  let rng = Rng.of_int seed in
  Cluster.Config.build_uniform ~rng ~n_clusters:4 ~cluster_size:12
    ~byz_per_cluster ~overlay_degree:3 ()

(* --- store basics --- *)

let test_store_canonical_order () =
  let store = Store.create () in
  (* Recorded deliberately out of order; reads must come back sorted. *)
  Store.add store Store.Gauge ~series:"b" ~time:2 2.0;
  Store.add store Store.Gauge ~series:"a" ~time:5 5.0;
  Store.add store Store.Gauge ~series:"a" ~time:1 1.0;
  Store.add store Store.Gauge ~series:"a" ~time:1 nan;
  (* non-finite skipped *)
  checki "nan skipped" 3 (Store.n_samples store);
  let keys =
    List.map
      (fun (s : Store.sample) -> (s.Store.series, s.Store.time))
      (Store.samples store)
  in
  checkb "sorted by (series, time)" true
    (keys = [ ("a", 1); ("a", 5); ("b", 2) ])

let test_cadence_gates_sampling () =
  let store = Monitor.create ~cadence:2 () in
  let engine = small_engine 31 in
  Monitor.with_monitor store (fun () ->
      for time = 0 to 5 do
        Monitor.maybe_sample_engine ~time engine
      done);
  let times =
    List.sort_uniq compare
      (List.map (fun (s : Store.sample) -> s.Store.time) (Store.samples store))
  in
  checkb "only times on the cadence" true (times = [ 0; 2; 4 ])

let test_single_monitor_at_a_time () =
  let a = Monitor.create () and b = Monitor.create () in
  Monitor.install a;
  Alcotest.check_raises "second install rejected"
    (Invalid_argument "Monitor.install: a monitor is already installed")
    (fun () -> Monitor.install b);
  ignore (Monitor.uninstall ());
  checkb "uninstalled" true (not (Monitor.sampling ()))

(* --- the violation path --- *)

(* 5 corrupted of 12 members: 7 honest, 3*7 = 21 <= 2*12 = 24, so every
   cluster breaches Theorem 3's bound — the monitor must say so. *)
let test_corruption_above_threshold_breaches () =
  let store = Store.create () in
  let cfg = msg_config ~seed:71 ~byz_per_cluster:5 in
  Monitor.Probe.sample_config store ~time:0 cfg;
  checkb "violations recorded" true (Store.n_violations store > 0);
  checki "one per cluster" 4 (Store.n_violations store);
  List.iter
    (fun (v : Store.violation) ->
      checks "honest-fraction invariant" "cluster.honest_frac" v.Store.invariant;
      checkb "observed below bound" true (v.Store.observed <= v.Store.bound))
    (Store.violations store)

(* 2 of 12: 10 honest, 3*10 = 30 > 24 — within tolerance, no violations. *)
let test_corruption_within_tolerance_is_silent () =
  let store = Store.create () in
  let cfg = msg_config ~seed:71 ~byz_per_cluster:2 in
  Monitor.Probe.sample_config store ~time:0 cfg;
  checki "no violations" 0 (Store.n_violations store);
  checkb "but gauges sampled" true (Store.n_samples store > 0)

(* 4 of 12: 8 honest, exactly 2/3 — 3*8 = 24 <= 24 still breaches the
   strict > 2/3 bound.  Kills the boundary mutant [3 * honest <= 2 * size]
   -> [<] in Probe's honest floor. *)
let test_exactly_two_thirds_honest_breaches () =
  let store = Store.create () in
  let cfg = msg_config ~seed:71 ~byz_per_cluster:4 in
  Monitor.Probe.sample_config store ~time:0 cfg;
  checki "one violation per cluster" 4 (Store.n_violations store);
  List.iter
    (fun (v : Store.violation) ->
      checks "honest-fraction invariant" "cluster.honest_frac" v.Store.invariant)
    (Store.violations store)

(* Both engines feed the same series families. *)
let test_both_engines_fill_the_registry () =
  let store = Store.create () in
  Monitor.Probe.sample_engine store ~time:0 (small_engine 32);
  Monitor.Probe.sample_config store ~time:0 (msg_config ~seed:72 ~byz_per_cluster:2);
  let series_of engine_label =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : Store.sample) ->
           if List.mem ("engine", engine_label) s.Store.labels then
             Some s.Store.series
           else None)
         (Store.samples store))
  in
  let state = series_of "state" and msg = series_of "msg" in
  List.iter
    (fun family ->
      checkb ("state engine emits " ^ family) true (List.mem family state);
      checkb ("msg engine emits " ^ family) true (List.mem family msg))
    [
      "cluster.honest_frac.min"; "cluster.size.max"; "overlay.degree.max";
      "overlay.expansion.lower"; "ledger.messages";
    ];
  (* Every emitted series is a registered probe with a description. *)
  List.iter
    (fun (s : Store.sample) ->
      checkb ("registered series: " ^ s.Store.series) true
        (Monitor.Probe.describe s.Store.series <> None))
    (Store.samples store)

(* --- exporters --- *)

let monitored_workload ~jobs () =
  let store = Monitor.create () in
  Monitor.with_monitor store (fun () ->
      ignore
        (Exec.par_map ~jobs
           (fun i ->
             let engine = small_engine (200 + i) in
             let labels = [ ("cell", string_of_int i) ] in
             Monitor.maybe_sample_engine ~labels ~time:0 engine;
             for step = 1 to 3 do
               ignore (Engine.join engine Node.Honest);
               ignore (Engine.leave engine (Engine.random_node engine));
               Monitor.maybe_sample_engine ~labels ~time:step engine
             done;
             0)
           [ 0; 1; 2; 3 ]));
  store

let test_exports_identical_across_reruns () =
  let a = Monitor.Export.jsonl_string (monitored_workload ~jobs:1 ()) in
  let b = Monitor.Export.jsonl_string (monitored_workload ~jobs:1 ()) in
  checkb "non-trivial export" true (String.length a > 1000);
  checks "same seed, same bytes" a b

let test_exports_identical_across_jobs () =
  let seq = monitored_workload ~jobs:1 () in
  let par = monitored_workload ~jobs:4 () in
  checks "jsonl -j1 = -j4"
    (Monitor.Export.jsonl_string seq)
    (Monitor.Export.jsonl_string par);
  checks "csv -j1 = -j4"
    (Monitor.Export.csv_string seq)
    (Monitor.Export.csv_string par);
  checks "dashboard -j1 = -j4"
    (Monitor.Dashboard.render seq)
    (Monitor.Dashboard.render par)

let test_jsonl_shape () =
  let store = Store.create () in
  let cfg = msg_config ~seed:73 ~byz_per_cluster:5 in
  Monitor.Probe.sample_config store ~labels:[ ("quo\"te", "va\\lue") ] ~time:0 cfg;
  let jsonl = Monitor.Export.jsonl_string store in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  checki "one line per sample + violation + meta"
    (Store.n_samples store + Store.n_violations store + 1)
    (List.length lines);
  checkb "label quotes escaped" true (contains jsonl "quo\\\"te");
  checkb "label backslashes escaped" true (contains jsonl "va\\\\lue");
  checkb "violations serialised" true (contains jsonl "\"type\":\"violation\"");
  let meta = List.nth lines (List.length lines - 1) in
  checkb "meta line last" true (contains meta "\"type\":\"meta\"")

(* Satellite hardening: a hostile series/label/detail name (commas,
   quotes, semicolons, equals signs, newlines) must survive a CSV
   round-trip — RFC 4180 quoting at the field level, backslash escaping
   inside the packed labels field. *)
(* Parse a whole CSV document into rows: quotes may enclose commas and
   record separators, doubled quotes unescape — RFC 4180. *)
let csv_parse doc =
  let rows = ref [] and fields = ref [] and buf = Buffer.create 32 in
  let n = String.length doc in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_row () =
    flush_field ();
    rows := List.rev !fields :: !rows;
    fields := []
  in
  let rec field i =
    if i >= n then flush_row_at_end ()
    else if doc.[i] = '"' then quoted (i + 1)
    else plain i
  and plain i =
    if i >= n then flush_row_at_end ()
    else
      match doc.[i] with
      | ',' ->
        flush_field ();
        field (i + 1)
      | '\n' ->
        flush_row ();
        if i + 1 < n then field (i + 1)
      | c ->
        Buffer.add_char buf c;
        plain (i + 1)
  and quoted i =
    if i >= n then failwith "unterminated quote"
    else if doc.[i] = '"' then
      if i + 1 < n && doc.[i + 1] = '"' then begin
        Buffer.add_char buf '"';
        quoted (i + 2)
      end
      else plain (i + 1)
    else begin
      Buffer.add_char buf doc.[i];
      quoted (i + 1)
    end
  and flush_row_at_end () =
    if Buffer.length buf > 0 || !fields <> [] then flush_row ()
  in
  field 0;
  List.rev !rows

(* Unpack a [k=v;k=v] labels field with backslash escapes. *)
let parse_labels_field s =
  let pairs = ref [] and key = Buffer.create 16 and value = Buffer.create 16 in
  let in_key = ref true in
  let flush () =
    if Buffer.length key > 0 || Buffer.length value > 0 then
      pairs := (Buffer.contents key, Buffer.contents value) :: !pairs;
    Buffer.clear key;
    Buffer.clear value;
    in_key := true
  in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '\\' && !i + 1 < n then begin
      Buffer.add_char (if !in_key then key else value) s.[!i + 1];
      i := !i + 2
    end
    else begin
      (if c = ';' then flush ()
       else if c = '=' && !in_key then in_key := false
       else Buffer.add_char (if !in_key then key else value) c);
      incr i
    end
  done;
  if Buffer.length key > 0 || Buffer.length value > 0 then flush ();
  List.rev !pairs

(* Unpack a [e|e] blame field with backslash escapes. *)
let parse_blame_field s =
  let entries = ref [] and buf = Buffer.create 16 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if c = '\\' && !i + 1 < n then begin
      Buffer.add_char buf s.[!i + 1];
      i := !i + 2
    end
    else begin
      (if c = '|' then begin
         entries := Buffer.contents buf :: !entries;
         Buffer.clear buf
       end
       else Buffer.add_char buf c);
      incr i
    end
  done;
  entries := Buffer.contents buf :: !entries;
  List.rev !entries

let test_csv_round_trips_hostile_names () =
  let store = Store.create () in
  let labels = [ ("cell;id", "a=b,c\\d"); ("plain", "v\"q") ] in
  Store.add store Store.Gauge ~series:"evil,\"series\"\nname" ~labels ~time:3
    1.5;
  Store.record_violation store ~labels ~blame:[ "ev|ent, one"; "ev\\two" ]
    ~invariant:"inv,ariant" ~time:4 ~observed:0.25 ~bound:0.5
    ~detail:"note with, comma and \"quotes\"";
  let csv = Monitor.Export.csv_string store in
  match csv_parse csv with
  | [ header; sample; violation ] ->
    checki "header width" 8 (List.length header);
    checks "series survives" "evil,\"series\"\nname" (List.nth sample 1);
    checkb "labels survive" true
      (parse_labels_field (List.nth sample 2) = labels);
    checks "invariant survives" "inv,ariant" (List.nth violation 1);
    checks "detail survives" "note with, comma and \"quotes\""
      (List.nth violation 6);
    checkb "blame survives" true
      (parse_blame_field (List.nth violation 7)
      = [ "ev|ent, one"; "ev\\two" ])
  | lines ->
    Alcotest.failf "expected header + sample + violation, got %d lines"
      (List.length lines)

let test_violations_carry_blame () =
  (* Without a trace collector the window is the standing fallback —
     still non-empty. *)
  let store = Store.create () in
  Monitor.Probe.sample_config store ~time:0 (msg_config ~seed:75 ~byz_per_cluster:5);
  checkb "violations recorded" true (Store.n_violations store > 0);
  List.iter
    (fun (v : Store.violation) ->
      checkb "blame never empty" true (v.Store.blame <> []))
    (Store.violations store);
  (* With a collector, deviations touching the violating cluster land in
     the window; events for other clusters are filtered out. *)
  let events =
    [
      Trace.Point { name = "byz.equivocate"; layer = Trace.Msg; time = 2;
                    attrs = [ ("cluster", 1) ] };
      Trace.Point { name = "byz.equivocate"; layer = Trace.Msg; time = 3;
                    attrs = [ ("cluster", 9) ] };
      Trace.Open { name = "exchange"; layer = Trace.Msg; time = 4;
                   attrs = [ ("cluster", 1) ] };
      Trace.Close { messages = 0; rounds = 0; alloc = 0 };
      Trace.Point { name = "net.send"; layer = Trace.Net; time = 5; attrs = [] };
    ]
  in
  let blame = Monitor.Blame.of_events ~cluster:1 events in
  checkb "deviation attributed" true
    (blame = [ "t=2 msg:byz.equivocate cluster=1"; "t=4 msg:exchange cluster=1" ]);
  let other = Monitor.Blame.of_events ~cluster:7 events in
  checkb "unrelated cluster gets the standing entry" true
    (List.length other = 1
    && String.length (List.hd other) > 0
    && String.sub (List.hd other) 0 9 = "standing:")

let test_blame_window_is_bounded () =
  let events =
    List.init 40 (fun i ->
        Trace.Point { name = "byz.flood"; layer = Trace.Msg; time = i;
                      attrs = [ ("cluster", 0) ] })
  in
  let blame = Monitor.Blame.of_events ~cluster:0 ~max_entries:5 events in
  checki "window capped" 5 (List.length blame);
  checks "keeps the most recent entries" "t=39 msg:byz.flood cluster=0"
    (List.nth blame 4)

let test_dashboard_shape () =
  let store = Store.create () in
  Monitor.Probe.sample_config store ~time:0 (msg_config ~seed:74 ~byz_per_cluster:5);
  Monitor.Probe.sample_config store ~time:1 (msg_config ~seed:74 ~byz_per_cluster:5);
  let html = Monitor.Dashboard.render store in
  checkb "self-contained svg" true (contains html "<svg");
  checkb "no external scripts" true (not (contains html "<script"));
  checkb "no external stylesheets" true (not (contains html "link rel"));
  checkb "violations surfaced" true (contains html "cluster.honest_frac");
  let clean = Monitor.Dashboard.render (Store.create ()) in
  checkb "clean run says no breach" true (contains clean "no paper bound");
  checkb "breaches carry a blame pane" true
    (contains html "<details class=\"blame\">")

(* Degenerate stores must still render finite, self-contained documents:
   no samples at all, violations with zero backing samples, and
   single-sample series (tmax = tmin and vhi = vlo — both division-by-
   zero hazards in the band scaling). *)
let test_dashboard_edge_cases () =
  let finite html =
    checkb "self-contained" true (not (contains html "<script"));
    checkb "no nan coordinates" true (not (contains html "nan"));
    checkb "no inf coordinates" true (not (contains html "inf"))
  in
  (* zero-sample series: a violation recorded with no samples behind it *)
  let empty = Store.create () in
  Store.record_violation empty ~blame:[ "standing: test" ]
    ~invariant:"cluster.honest_frac" ~time:0 ~observed:0.5 ~bound:0.666
    ~detail:"no samples";
  let html = Monitor.Dashboard.render empty in
  finite html;
  checkb "violation shown without a series" true
    (contains html "cluster.honest_frac");
  (* single-sample series: one gauge point, constant value *)
  let single = Store.create () in
  Store.add single Store.Gauge ~series:"cluster.count" ~time:7 3.0;
  let html = Monitor.Dashboard.render single in
  finite html;
  checkb "single point drawn as a dot" true (contains html "<circle");
  (* 100%-violations series: every sampled point also breaches *)
  let all_bad = Store.create () in
  for time = 0 to 2 do
    Store.add all_bad Store.Gauge ~series:"cluster.honest_frac.min" ~time 0.5;
    Store.record_violation all_bad ~blame:[ "standing: test" ]
      ~invariant:"cluster.honest_frac" ~time ~observed:0.5 ~bound:0.666
      ~detail:(Printf.sprintf "t%d" time)
  done;
  let html = Monitor.Dashboard.render all_bad in
  finite html;
  checkb "every breach marked" true (contains html "3 breaches");
  (* constant series with an identical constant bound: vhi = vlo across
     series and bound points together *)
  let flat = Store.create () in
  Store.add flat Store.Gauge ~series:"overlay.degree.max" ~time:0 4.0;
  Store.add flat Store.Gauge ~series:"overlay.degree.max" ~time:1 4.0;
  Store.add flat Store.Gauge ~series:"overlay.degree.bound" ~time:0 4.0;
  Store.add flat Store.Gauge ~series:"overlay.degree.bound" ~time:1 4.0;
  finite (Monitor.Dashboard.render flat)

(* --- trace ingestion --- *)

let test_ingest_trace_buckets_points () =
  let (), dump =
    Trace.profiled (fun () ->
        Trace.point ~time:3 Trace.Msg "byz.equivocate";
        Trace.point ~time:4 Trace.Msg "byz.equivocate";
        Trace.point ~time:17 Trace.Msg "walk.retry";
        Trace.point ~time:4 Trace.Msg "net.send" (* not interesting *))
  in
  let store = Store.create () in
  Monitor.Probe.ingest_trace store ~bucket:10 dump;
  let counts =
    List.map
      (fun (s : Store.sample) -> (s.Store.series, s.Store.time, s.Store.value))
      (Store.samples store)
  in
  checkb "byz points bucketed, net ignored" true
    (counts = [ ("byz.equivocate", 0, 2.0); ("walk.retry", 10, 1.0) ])

(* --- zero perturbation --- *)

(* The headline guarantee: running E3 (quick) under an installed monitor
   yields a byte-identical table — probes read engine state but never
   touch a random stream. *)
let test_monitoring_is_zero_perturbation () =
  let run () =
    match Harness.Registry.find "E3" with
    | None -> Alcotest.fail "E3 missing from the registry"
    | Some runner ->
      let r = runner Harness.Common.Quick in
      Metrics.Table.to_csv r.Harness.Common.table
  in
  let plain = run () in
  let store = Monitor.create () in
  let monitored = Monitor.with_monitor store (fun () -> run ()) in
  checks "E3 table identical with monitoring on" plain monitored;
  checkb "monitor actually sampled" true (Store.n_samples store > 0);
  checkb "E3 run is labelled" true
    (List.exists
       (fun (s : Store.sample) ->
         List.mem ("experiment", "E3") s.Store.labels)
       (Store.samples store))

(* The overlay probes now read degree/expansion through the health cache
   (Config.overlay_health / Over.Health_cache).  Cached reads must stay as
   invisible as uncached ones: an engine trajectory probed every step
   saves byte-identically to an unprobed twin, and repeated config probes
   between sessions leave a valchan run's outcome and charges untouched. *)
let test_cached_probes_zero_perturbation () =
  let trajectory ~probe =
    let store = Store.create () in
    let engine = small_engine 91 in
    if probe then Monitor.Probe.sample_engine store ~time:0 engine;
    for step = 1 to 25 do
      ignore (Engine.join engine Node.Honest);
      ignore (Engine.leave engine (Engine.random_node engine));
      if probe then Monitor.Probe.sample_engine store ~time:step engine
    done;
    (Engine.save engine, Store.n_samples store)
  in
  let plain, _ = trajectory ~probe:false in
  let probed, n_samples = trajectory ~probe:true in
  checks "engine snapshot identical with per-step probing" plain probed;
  checkb "probes actually sampled (cache exercised)" true (n_samples > 0);
  let session ~probe =
    let cfg = msg_config ~seed:92 ~byz_per_cluster:2 in
    let store = Store.create () in
    if probe then
      for time = 0 to 3 do
        Monitor.Probe.sample_config store ~time cfg
      done;
    let r =
      Cluster.Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload:5 ()
    in
    ( r.Cluster.Valchan.unanimous,
      r.Cluster.Valchan.verdicts,
      Metrics.Ledger.labels (Cluster.Config.ledger cfg) )
  in
  checkb "valchan outcome identical after repeated cached probes" true
    (session ~probe:false = session ~probe:true)

let suite =
  [
    Alcotest.test_case "store canonical order" `Quick test_store_canonical_order;
    Alcotest.test_case "cadence gates sampling" `Quick test_cadence_gates_sampling;
    Alcotest.test_case "single monitor at a time" `Quick
      test_single_monitor_at_a_time;
    Alcotest.test_case "corruption above threshold breaches" `Quick
      test_corruption_above_threshold_breaches;
    Alcotest.test_case "corruption within tolerance is silent" `Quick
      test_corruption_within_tolerance_is_silent;
    Alcotest.test_case "exactly 2/3 honest breaches the floor" `Quick
      test_exactly_two_thirds_honest_breaches;
    Alcotest.test_case "both engines fill the registry" `Quick
      test_both_engines_fill_the_registry;
    Alcotest.test_case "exports identical across reruns" `Quick
      test_exports_identical_across_reruns;
    Alcotest.test_case "exports identical across -j" `Quick
      test_exports_identical_across_jobs;
    Alcotest.test_case "jsonl shape and escaping" `Quick test_jsonl_shape;
    Alcotest.test_case "csv round-trips hostile names" `Quick
      test_csv_round_trips_hostile_names;
    Alcotest.test_case "violations carry blame" `Quick
      test_violations_carry_blame;
    Alcotest.test_case "blame window is bounded" `Quick
      test_blame_window_is_bounded;
    Alcotest.test_case "dashboard shape" `Quick test_dashboard_shape;
    Alcotest.test_case "dashboard edge cases" `Quick test_dashboard_edge_cases;
    Alcotest.test_case "trace points fold into counters" `Quick
      test_ingest_trace_buckets_points;
    Alcotest.test_case "monitoring is zero-perturbation (E3)" `Slow
      test_monitoring_is_zero_perturbation;
    Alcotest.test_case "cached probes are zero-perturbation" `Quick
      test_cached_probes_zero_perturbation;
  ]
