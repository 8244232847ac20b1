(* One benchmark run: set-up, the timed phase, the correctness checks and,
   in the traced run, the per-layer readings.

   The timed phase runs a fixed number of steps in whole chunks (see
   [Workload.steps]), so every host measures the same work: the
   deterministic metrics repeat bit for bit for a seed, and only the
   host metrics vary between runs.  Every deterministic figure of the
   phase is a total over all of its steps; host time is also read at
   every chunk boundary. *)

module W = Workload

let now = Spans.now_ns
let secs ns = float_of_int ns *. 1e-9

(* Host-dependent times are process CPU seconds (user + system, every
   domain, joined Exec workers included), not wall seconds: on a shared
   virtual machine the hypervisor can take a large and changing share of
   wall time away from the process (steal time), and that share is not
   the program's cost. *)
let cpu_s = Sys.time

(* Words allocated so far.  On one domain this is the calling domain's
   exact count: [Gc.minor_words] plus direct major allocation (the
   [Gc.counters] pair moves together at each promotion).  With Exec
   workers it is [Gc.quick_stat], which also counts worker domains once
   they have joined but is only refreshed at minor collections. *)
let alloc_words ~jobs =
  if jobs = 1 then begin
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  end
  else begin
    let s = Gc.quick_stat () in
    s.minor_words +. s.major_words -. s.promoted_words
  end

(* Process high-water resident set, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ---------- deterministic metrics ---------- *)

type snap = { c : W.counters; alloc : float; calls : int; fails : int }

let snap ~jobs (w : W.t) =
  let c = w.counters () in
  let alloc = alloc_words ~jobs in
  { c; alloc; calls = W.attempted w; fails = W.failed w }

type det = {
  alloc_words_per_step : float;
  failed_op_share : float;
  safety_breaches_per_kstep : float;
  sim_msgs_per_step : float;
  sim_time_per_step : float;
}

(* Totals over the timed phase, from its first and last snapshots. *)
let det ~steps a b =
  let per_step x = x /. float_of_int steps in
  {
    alloc_words_per_step = per_step (b.alloc -. a.alloc);
    failed_op_share = W.per (b.fails - a.fails) (b.calls - a.calls);
    safety_breaches_per_kstep = 1000.0 *. per_step (float_of_int (b.c.breaches - a.c.breaches));
    sim_msgs_per_step = per_step (float_of_int (b.c.messages - a.c.messages));
    sim_time_per_step = per_step (b.c.sim_time -. a.c.sim_time);
  }

(* ---------- set-up and the timed phase ---------- *)

let median xs = Spans.percentile (Array.of_list xs) 0.5

(* Run the untimed warm-up steps on a freshly built system. *)
let warm_up (spec : W.spec) (w : W.t) =
  let ctx = W.ctx () in
  for i = 0 to spec.warmup - 1 do
    ctx.step <- i;
    w.step ctx i
  done;
  ctx

(* [n] builds of the system, each from a compacted heap; all but the last
   are closed.  Returns the last with the build CPU times. *)
let builds (spec : W.spec) ~seed n =
  Exec.set_default_jobs spec.jobs;
  let times = ref [] and kept = ref None in
  for _ = 1 to n do
    Option.iter (fun (w : W.t) -> w.close ()) !kept;
    kept := None;
    Gc.compact ();
    let t0 = cpu_s () in
    kept := Some (spec.make ~seed);
    times := (cpu_s () -. t0) :: !times
  done;
  (Option.get !kept, !times)

(* The system to measure, built [n] times and warmed up; the warm-up is not
   part of set-up time. *)
let setups (spec : W.spec) ~seed n =
  let w, times = builds spec ~seed n in
  let ctx = warm_up spec w in
  Gc.compact ();
  ((w, ctx), times)

type phase = {
  steps : int;
  wall_ns : int;
  cpu_s : float;
  chunk_rates : float array;  (* steps per CPU second of each chunk, in order *)
  det : det;
  attempted : int;
  raised : int;
}

(* The headline rate: the steps per CPU second that nine chunks in ten
   reach or beat.  The host's speed for the same work is not steady: it
   moves between a slower level and one about 1.45 times faster in
   stretches of seconds, in a mix that differs from run to run, and a
   rate over the whole phase follows that mix.  When the slower level
   holds in some part of a run, the 10th percentile of the chunk rates
   reads it.  A cost that recurs in more than a tenth of the chunks
   lowers it in full. *)
let steps_per_cpu_s_p10 p = Spans.percentile p.chunk_rates 0.1

let steps_per_cpu_s_total p = float_of_int p.steps /. p.cpu_s
let steps_per_wall_s p = float_of_int p.steps /. secs p.wall_ns

let timed_phase (spec : W.spec) (w : W.t) (ctx : W.ctx) ~steps ~lane =
  if steps <= 0 then invalid_arg "Bench: steps must be positive";
  (* Chunk [k] starts at step [k * chunk]; the last chunk also takes any
     steps left over, so a phase shorter than two chunks is one chunk. *)
  let chunks = max 1 (steps / spec.chunk) in
  let marks = Array.make (chunks + 1) 0.0 in
  let first = snap ~jobs:spec.jobs w and raised0 = W.raised_total w in
  let c0 = cpu_s () and t0 = now () in
  marks.(0) <- c0;
  for j = 0 to steps - 1 do
    let i = spec.warmup + j in
    if j > 0 && j mod spec.chunk = 0 && j / spec.chunk < chunks then
      marks.(j / spec.chunk) <- cpu_s ();
    ctx.step <- i;
    match ctx.spans with
    | None -> w.step ctx i
    | Some spans ->
      let id = Spans.fresh_id spans in
      ctx.parent <- id;
      let start = now () in
      w.step ctx i;
      Spans.add spans ~id ~name:"step" ~start ~stop:(now ()) ~parent:(-1) ~step:i;
      Option.iter Gc_lane.poll lane
  done;
  let wall_ns = now () - t0 and c1 = cpu_s () in
  marks.(chunks) <- c1;
  let last = snap ~jobs:spec.jobs w in
  let chunk_steps k = if k = chunks - 1 then steps - (k * spec.chunk) else spec.chunk in
  {
    steps;
    wall_ns;
    cpu_s = c1 -. c0;
    chunk_rates =
      Array.init chunks (fun k -> float_of_int (chunk_steps k) /. (marks.(k + 1) -. marks.(k)));
    det = det ~steps first last;
    attempted = last.calls - first.calls;
    raised = W.raised_total w - raised0;
  }

let finish (w : W.t) (ctx : W.ctx) =
  Option.iter (fun m -> Printf.eprintf "note: first raised call: %s\n%!" m) ctx.first_raise;
  w.check ();
  w.close ()

(* ---------- the untraced run: end-to-end metrics ---------- *)

type e2e = { setup_s : float; phase : phase; peak_rss_mb : float }

(* [setup_s] is the median of the builds before the timed phase and as
   many after it: the host's speed changes over tens of seconds, and
   builds at both ends of the run sample it twice.  The later builds run
   once the measured system is closed and the peak RSS is read. *)
let untraced (spec : W.spec) ~seed ~steps =
  let (w, ctx), before = setups spec ~seed spec.setups in
  let phase = timed_phase spec w ctx ~steps ~lane:None in
  finish w ctx;
  let peak_rss_mb = peak_rss_mb () in
  let last, after = builds spec ~seed spec.setups in
  last.close ();
  { setup_s = median (before @ after); phase; peak_rss_mb }

let e2e_metrics r =
  let d = r.phase.det in
  [
    ("setup_s", r.setup_s, "s");
    ("steps_per_cpu_s.p10", steps_per_cpu_s_p10 r.phase, "steps/cpu-s");
    ("alloc_words_per_step", d.alloc_words_per_step, "words/step");
    ("peak_rss_mb", r.peak_rss_mb, "MB");
    ("ok_call_share", 1.0 -. d.failed_op_share, "ratio");
    ("sim_msgs_per_step", d.sim_msgs_per_step, "msgs/step");
    ("sim_time_per_step", d.sim_time_per_step, "simtime/step");
  ]

(* ---------- the traced run: per-layer metrics ---------- *)

(* Child spans timed per call kind, with the percentiles reported. *)
let timed_spans =
  [
    ("core.join", [ 0.5; 0.99 ]);
    ("core.leave", [ 0.5; 0.99 ]);
    ("core.epoch", [ 0.5 ]);
    ("audit.frame", [ 0.5 ]);
    ("monitor.sample", [ 0.5 ]);
    ("cluster.join", [ 0.5 ]);
    ("cluster.leave", [ 0.5; 0.9 ]);
    ("cluster.walk", [ 0.5 ]);
    ("cluster.randnum", [ 0.5 ]);
    ("cluster.valchan", [ 0.5 ]);
    ("cluster.exchange", [ 0.5 ]);
    ("scenario.scan", [ 0.5 ]);
    ("asim.transmit", [ 0.5 ]);
    ("asim.randnum", [ 0.5 ]);
    ("asim.rand_cl", [ 0.5; 0.99 ]);
    ("asim.exchange", [ 0.5 ]);
  ]

let ledger_labels =
  [
    "walk.token";
    "randnum";
    "valchan";
    "exchange.announce";
    "exchange.transfer";
    "exchange.view_update";
    "join.insert";
    "leave.notify";
  ]

let pct_name p = Printf.sprintf "p%d" (int_of_float (Float.round (p *. 100.0)))

(* Every per-layer metric with its unit, in report order.  A workload
   that does not exercise a layer reports 0 for it. *)
let layer_units =
  List.concat_map
    (fun (span, ps) ->
      List.map (fun p -> (Printf.sprintf "%s_ms.%s" span (pct_name p), "ms")) ps
      @ [ (span ^ "_ms.n", "count") ])
    timed_spans
  @ [
      ("core.exchanges_per_step", "1/step");
      ("core.walk_hops_per_step", "1/step");
      ("core.splits_per_kstep", "1/kstep");
      ("core.merges_per_kstep", "1/kstep");
      ("core.arena_live_words", "words");
      ("core.arena_capacity_words", "words");
      ("core.exceptions", "count");
      ("exec.tasks_per_epoch", "1/epoch");
      ("exec.queue_wait_ms_per_epoch", "ms/epoch");
      ("exec.merge_stall_ms_per_epoch", "ms/epoch");
      ("exec.caller_task_share", "ratio");
      ("exec.cpu_ms_per_step", "ms/step");
      ("audit.frames", "count");
      ("monitor.samples", "count");
      ("monitor.violations", "count");
      ("cluster.churn_failures", "count");
      ("cluster.walks_failed", "count");
      ("cluster.randnum_stalls", "count");
      ("cluster.valchan_rejected", "count");
      ("cluster.valchan_forged", "count");
      ("cluster.exceptions", "count");
      ("cluster.final_nodes", "count");
      ("simkernel.host_ns_per_msg", "ns/msg");
    ]
  @ List.map (fun l -> ("simkernel.msgs_per_step." ^ l, "msgs/step")) ledger_labels
  @ [
      ("simkernel.rounds_per_step", "rounds/step");
      ("asim.host_ns_per_msg", "ns/msg");
      ("asim.queue_peak", "count");
      ("asim.inflight_peak", "count");
      ("asim.timeouts_per_step", "1/step");
      ("asim.virtual_p99", "simtime");
      ("asim.transmit_failures", "count");
      ("asim.transmit_forged", "count");
      ("asim.randnum_stalls", "count");
      ("asim.rand_cl_failures", "count");
      ("asim.exchange_failures", "count");
      ("asim.exceptions", "count");
      ("gc.minor_per_step", "1/step");
      ("gc.major_slices_per_step", "1/step");
      ("gc.pause_ms_per_step", "ms/step");
      ("gc.pause_p99_ms", "ms");
      ("gc.pause_n", "count");
      ("gc.time_share", "ratio");
      ("bench.steps", "count");
      ("bench.step_self_share", "ratio");
      ("bench.trace_overhead", "ratio");
      ("bench.steps_per_cpu_s.total", "steps/cpu-s");
      ("bench.wall_steps_per_s", "steps/s");
      ("bench.failed_op_share", "ratio");
      ("bench.safety_breaches_per_kstep", "1/kstep");
    ]

type traced = {
  layers : (string * float * string) list;
  spans : Spans.span list;
  gc_lost : int;
  t_attempted : int;
  t_raised : int;
}

(* The traced run measures the same workload twice from the same seed:
   untraced first, for the baseline of [bench.trace_overhead] and the
   deterministic shares, then traced, for everything else. *)
let traced (spec : W.spec) ~seed ~steps =
  let base =
    let (w, ctx), _ = setups spec ~seed 1 in
    let p = timed_phase spec w ctx ~steps ~lane:None in
    finish w ctx;
    p
  in
  let (w, ctx), _ = setups spec ~seed 1 in
  let spans = Spans.create () in
  ctx.spans <- Some spans;
  let finisher = w.layer () in
  let total f = List.fold_left (fun acc l -> acc + f l) 0 w.ledgers in
  let label_counts () =
    List.map (fun l -> total (fun g -> Metrics.Ledger.label_messages g l)) ledger_labels
  in
  let labels0 = label_counts () and rounds0 = total Metrics.Ledger.total_rounds in
  let lane = Gc_lane.start () in
  let p = timed_phase spec w ctx ~steps ~lane:(Some lane) in
  Gc_lane.stop lane;
  let per_step x = x /. float_of_int steps in
  let own = finisher ~steps ~wall_ns:p.wall_ns in
  let labels1 = label_counts () in
  let spans = Spans.spans spans in
  let pauses = Gc_lane.pauses lane in
  let pause_ms = Array.fold_left ( +. ) 0.0 pauses in
  let measured =
    List.concat_map
      (fun (span, ps) ->
        let d = Spans.durations spans span in
        List.map (fun p -> (Printf.sprintf "%s_ms.%s" span (pct_name p), Spans.percentile d p)) ps
        @ [ (span ^ "_ms.n", float_of_int (Array.length d)) ])
      timed_spans
    @ List.map2
        (fun l (a, b) -> ("simkernel.msgs_per_step." ^ l, per_step (float_of_int (b - a))))
        ledger_labels (List.combine labels0 labels1)
    @ [
        ( "simkernel.rounds_per_step",
          per_step (float_of_int (total Metrics.Ledger.total_rounds - rounds0)) );
        ("exec.cpu_ms_per_step", per_step (1000.0 *. p.cpu_s));
        ("gc.minor_per_step", per_step (float_of_int (Gc_lane.minors lane)));
        ("gc.major_slices_per_step", per_step (float_of_int (Gc_lane.major_slices lane)));
        ("gc.pause_ms_per_step", per_step pause_ms);
        ("gc.pause_p99_ms", Spans.percentile pauses 0.99);
        ("gc.pause_n", float_of_int (Array.length pauses));
        ("gc.time_share", pause_ms /. (1e-6 *. float_of_int p.wall_ns));
        ("bench.steps", float_of_int steps);
        ("bench.step_self_share", Spans.step_self_share spans);
        ("bench.trace_overhead", 1.0 -. (steps_per_cpu_s_total p /. steps_per_cpu_s_total base));
        ("bench.steps_per_cpu_s.total", steps_per_cpu_s_total base);
        ("bench.wall_steps_per_s", steps_per_wall_s base);
        ("bench.failed_op_share", base.det.failed_op_share);
        ("bench.safety_breaches_per_kstep", base.det.safety_breaches_per_kstep);
      ]
    @ own
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name layer_units) then
        invalid_arg ("per-layer metric missing from the report list: " ^ name))
    measured;
  finish w ctx;
  {
    layers =
      List.map
        (fun (name, unit) -> (name, Option.value (List.assoc_opt name measured) ~default:0.0, unit))
        layer_units;
    spans;
    gc_lost = Gc_lane.lost lane;
    t_attempted = p.attempted;
    t_raised = p.raised;
  }

(* ---------- output ---------- *)

let json_number x =
  if not (Float.is_finite x) then invalid_arg "metric is not a finite number";
  Printf.sprintf "%.17g" x

let result_json ~correct ~attempted ~failed metrics =
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed m

let table metrics =
  String.concat ""
    (List.map
       (fun (name, v, unit) -> Printf.sprintf "%-44s %16.6g  %s\n" name v unit)
       metrics)
