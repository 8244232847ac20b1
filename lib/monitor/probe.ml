let honest_bound = 2.0 /. 3.0

let series =
  [
    ("asim.clock", Store.Gauge, "async engine virtual time (delay units)");
    ("asim.lat.max", Store.Gauge, "largest sub-session makespan per primitive");
    ("asim.lat.p50", Store.Gauge, "median sub-session makespan per primitive");
    ("asim.lat.p90", Store.Gauge, "p90 sub-session makespan per primitive");
    ("asim.lat.p99", Store.Gauge, "p99 sub-session makespan per primitive");
    ("asim.lat.timeouts", Store.Gauge, "deadline hits per primitive label");
    ("asim.queue.depth.peak", Store.Gauge, "peak event-queue length (async kernel)");
    ("asim.queue.inflight.peak", Store.Gauge, "peak undelivered messages (async kernel)");
    ("asim.timeouts", Store.Counter, "async sessions that hit their deadline");
    ("cluster.count", Store.Gauge, "live clusters in the system");
    ("cluster.honest_frac.bound", Store.Gauge, "Theorem 3 floor: > 2/3 honest");
    ("cluster.honest_frac.min", Store.Gauge, "worst per-cluster honest fraction");
    ("cluster.size.max", Store.Gauge, "largest cluster");
    ("cluster.size.max.bound", Store.Gauge, "split threshold l*k*log N");
    ("cluster.size.min", Store.Gauge, "smallest cluster");
    ("cluster.size.min.bound", Store.Gauge, "merge threshold k*log N/l");
    ("cluster.size.p50", Store.Histogram, "median cluster size");
    ("cluster.size.p95", Store.Histogram, "95th-percentile cluster size");
    ("ledger.messages", Store.Counter, "cumulative protocol messages");
    ("ledger.rounds", Store.Counter, "cumulative sequential rounds");
    ("ops.joins", Store.Counter, "lifetime join operations");
    ("ops.leaves", Store.Counter, "lifetime leave operations");
    ("ops.merges", Store.Counter, "lifetime cluster merges");
    ("ops.rejoins", Store.Counter, "lifetime forced re-joins");
    ("ops.splits", Store.Counter, "lifetime cluster splits");
    ("ops.walks", Store.Counter, "lifetime rand_cl walks");
    ("overlay.connected", Store.Gauge, "overlay connectivity (0/1)");
    ("overlay.degree.bound", Store.Gauge, "degree cap: twice the target degree");
    ("overlay.degree.max", Store.Gauge, "largest overlay vertex degree");
    ("overlay.degree.mean", Store.Gauge, "mean overlay vertex degree");
    ("overlay.degree.min", Store.Gauge, "smallest overlay vertex degree");
    ("overlay.edges", Store.Gauge, "overlay edge count");
    ("overlay.expansion.lower", Store.Gauge, "spectral lower bound on I(G)");
    ("overlay.expansion.upper", Store.Gauge, "sweep-cut upper bound on I(G)");
    ("overlay.vertices", Store.Gauge, "overlay vertex count");
    ("randnum.stall", Store.Counter, "randNum withholding stalls detected");
    ("valchan.forged", Store.Counter, "channel verdicts no honest majority sent");
    ("walk.failed", Store.Counter, "walks abandoned after repeated failures");
    ("walk.retry", Store.Counter, "walk hop retries after validation failure");
  ]

let describe name =
  List.find_map (fun (n, _, d) -> if n = name then Some d else None) series

(* Shared between the two engines: the honest-fraction family from integer
   per-cluster (size, byz) stats — Theorem 3's bound is checked as
   3*honest <= 2*size so a cluster at exactly 2/3 honest counts as
   breached without float rounding. *)
let sample_honest store ~labels ~time stats =
  let worst = ref 2.0 in
  List.iter
    (fun (cid, size, byz) ->
      if size > 0 then begin
        let honest = size - byz in
        let frac = float_of_int honest /. float_of_int size in
        if frac < !worst then worst := frac;
        if 3 * honest <= 2 * size then
          Store.record_violation store ~invariant:"cluster.honest_frac" ~labels
            ~cluster:cid ~time ~observed:frac ~bound:honest_bound
            ~detail:(Printf.sprintf "cluster %d: %d/%d honest" cid honest size)
      end)
    stats;
  if !worst <= 1.0 then begin
    Store.add store Gauge ~series:"cluster.honest_frac.min" ~labels ~time !worst;
    Store.add store Gauge ~series:"cluster.honest_frac.bound" ~labels ~time
      honest_bound
  end

let sample_sizes store ~labels ~time sizes =
  match sizes with
  | [] -> ()
  | _ ->
      let samples = Metrics.Histogram.Samples.create () in
      List.iter (Metrics.Histogram.Samples.add_int samples) sizes;
      let smax = List.fold_left max min_int sizes in
      let smin = List.fold_left min max_int sizes in
      Store.add store Gauge ~series:"cluster.count" ~labels ~time
        (float_of_int (List.length sizes));
      Store.add store Gauge ~series:"cluster.size.max" ~labels ~time
        (float_of_int smax);
      Store.add store Gauge ~series:"cluster.size.min" ~labels ~time
        (float_of_int smin);
      Store.add store Histogram ~series:"cluster.size.p50" ~labels ~time
        (Metrics.Histogram.Samples.percentile samples 50.0);
      Store.add store Histogram ~series:"cluster.size.p95" ~labels ~time
        (Metrics.Histogram.Samples.percentile samples 95.0)

let sample_health store ~labels ~time ?degree_bound (h : Over.health) =
  List.iter
    (fun (metric, value) ->
      Store.add store Gauge ~series:("overlay." ^ metric) ~labels ~time value)
    (Over.health_metrics h);
  (match degree_bound with
  | None -> ()
  | Some cap ->
      Store.add store Gauge ~series:"overlay.degree.bound" ~labels ~time
        (float_of_int cap);
      if h.max_degree > cap then
        Store.record_violation store ~invariant:"overlay.degree" ~labels ~time
          ~observed:(float_of_int h.max_degree) ~bound:(float_of_int cap)
          ~detail:(Printf.sprintf "max degree %d > cap %d" h.max_degree cap));
  if (not h.connected) && h.n_vertices > 1 then
    Store.record_violation store ~invariant:"overlay.connected" ~labels ~time
      ~observed:0.0 ~bound:1.0
      ~detail:
        (Printf.sprintf "overlay disconnected (%d vertices)" h.n_vertices)

let sample_ledger store ~labels ~time ledger =
  Store.add store Counter ~series:"ledger.messages" ~labels ~time
    (float_of_int (Metrics.Ledger.total_messages ledger));
  Store.add store Counter ~series:"ledger.rounds" ~labels ~time
    (float_of_int (Metrics.Ledger.total_rounds ledger))

let sample_view store ?(labels = []) ?(spectral_iterations = 200) ~time
    (v : Now_core.View.t) =
  let labels = ("engine", "state") :: labels in
  let params = v.Now_core.View.params in
  let stats = v.Now_core.View.cluster_stats () in
  sample_honest store ~labels ~time stats;
  let sizes = List.map (fun (_, size, _) -> size) stats in
  sample_sizes store ~labels ~time sizes;
  let size_max = Now_core.Params.max_cluster_size params in
  let size_min = Now_core.Params.min_cluster_size params in
  Store.add store Gauge ~series:"cluster.size.max.bound" ~labels ~time
    (float_of_int size_max);
  Store.add store Gauge ~series:"cluster.size.min.bound" ~labels ~time
    (float_of_int size_min);
  let n_clusters = List.length stats in
  List.iter
    (fun (cid, size, _) ->
      if size > size_max then
        Store.record_violation store ~invariant:"cluster.size" ~labels
          ~cluster:cid ~time ~observed:(float_of_int size)
          ~bound:(float_of_int size_max)
          ~detail:(Printf.sprintf "cluster %d size %d > max %d" cid size size_max)
      else if size < size_min && n_clusters > 1 then
        Store.record_violation store ~invariant:"cluster.size" ~labels
          ~cluster:cid ~time ~observed:(float_of_int size)
          ~bound:(float_of_int size_min)
          ~detail:(Printf.sprintf "cluster %d size %d < min %d" cid size size_min))
    stats;
  let health = v.Now_core.View.overlay_health ~spectral_iterations () in
  let cap = 2 * Now_core.Params.overlay_target_degree params ~n_clusters in
  sample_health store ~labels ~time ~degree_bound:cap health;
  let totals = v.Now_core.View.totals () in
  let counter series value =
    Store.add store Counter ~series ~labels ~time (float_of_int value)
  in
  counter "ops.joins" totals.Now_core.View.total_joins;
  counter "ops.leaves" totals.Now_core.View.total_leaves;
  counter "ops.splits" totals.Now_core.View.total_splits;
  counter "ops.merges" totals.Now_core.View.total_merges;
  counter "ops.rejoins" totals.Now_core.View.total_rejoins;
  counter "ops.walks" totals.Now_core.View.total_walks;
  sample_ledger store ~labels ~time (v.Now_core.View.ledger ())

let sample_engine store ?labels ?spectral_iterations ~time engine =
  sample_view store ?labels ?spectral_iterations ~time
    (Now_core.Engine.view engine)

let sample_config store ?(labels = []) ?(spectral_iterations = 200)
    ?degree_bound ~time cfg =
  let labels = ("engine", "msg") :: labels in
  let stats =
    List.map
      (fun cid ->
        (cid, Cluster.Config.size cfg cid, Cluster.Config.byz_count cfg cid))
      (Cluster.Config.cluster_ids cfg)
  in
  sample_honest store ~labels ~time stats;
  sample_sizes store ~labels ~time (List.map (fun (_, s, _) -> s) stats);
  (* Memoised on the overlay's mutation version (Over.Health_cache inside
     the config): a read-only hit, so sampling stays zero-perturbation. *)
  let health = Cluster.Config.overlay_health ~spectral_iterations cfg in
  sample_health store ~labels ~time ?degree_bound health;
  sample_ledger store ~labels ~time (Cluster.Config.ledger cfg)

let ingest_trace store ?(labels = []) ?(bucket = 1) dump =
  if bucket < 1 then invalid_arg "Monitor.Probe.ingest_trace: bucket must be >= 1";
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (event : Trace.event) ->
      match event with
      | Trace.Point { name; time; _ } when Blame.deviation_point name ->
          let key = (name, time / bucket * bucket) in
          let n = try Hashtbl.find counts key with Not_found -> 0 in
          Hashtbl.replace counts key (n + 1)
      | _ -> ())
    dump.Trace.events;
  Hashtbl.iter
    (fun (name, window) n ->
      Store.add store Counter ~series:name ~labels ~time:window
        (float_of_int n))
    counts
