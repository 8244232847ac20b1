module Rng = Prng.Rng
module Session = Asim.Session

let kind = "async"

type t = {
  spec : Spec.t;
  inner : Msg_driver.t;  (* every drive and tally, over the session's leaves *)
  session : Session.t;
}

let delay_of_spec (spec : Spec.t) =
  let name = match spec.Spec.delay with Some d -> d | None -> "exp" in
  match Asim.Delay.of_name name with
  | Ok d -> d
  | Error msg -> invalid_arg ("scenario: " ^ msg)

let supports (spec : Spec.t) =
  match Msg_driver.supports spec with
  | Error _ as e -> e
  | Ok () -> (
    match Asim.Delay.of_name (Option.value spec.Spec.delay ~default:"exp") with
    | Ok _ -> Ok ()
    | Error msg -> Error (Printf.sprintf "scenario %S: %s" spec.Spec.name msg))

let of_config ?patience ~rng ?labels (spec : Spec.t) cfg =
  let delay = delay_of_spec spec in
  (* Split the delay stream off the driver's root after construction:
     the configuration build consumes the same prefix as the synchronous
     message driver, and the delay stream is derived, not shared. *)
  let session = Session.create ?patience ~rng:(Rng.split rng) ~delay cfg in
  let inner =
    Msg_driver.of_config ~leaves:(Session.leaves session) ~rng ?labels spec cfg
  in
  { spec; inner; session }

let of_rng ?patience ~rng ?labels (spec : Spec.t) =
  (match supports spec with Ok () -> () | Error msg -> invalid_arg msg);
  of_config ?patience ~rng ?labels spec (Msg_driver.build ~rng spec)

let create ~seed ?labels spec = of_rng ~rng:(Rng.create seed) ?labels spec

let create_cell ~seed ~cell ?labels spec =
  of_rng ~rng:(Rng.of_int (seed + (701 * (cell + 1)))) ?labels spec

let session t = t.session
let config t = Msg_driver.config t.inner
let labels t = Msg_driver.labels t.inner
let label t = kind ^ ":" ^ t.spec.Spec.name

let step t ~time =
  Msg_driver.advance t.inner ~time;
  (* Post-step digest frame: the shared configuration plus the delay
     stream's cursor, so mis-seeded delays are bisectable to [rng]. *)
  Audit.maybe_record_config ~labels:(labels t)
    ~extra_rng:[ ("asim.delay", Session.rng_cursor t.session) ]
    ~step:time (config t)

let sample t ~time =
  Msg_driver.sample t.inner ~time;
  Monitor.maybe_gauge ~series:"asim.clock" ~labels:(labels t) ~time
    (Session.clock t.session);
  Monitor.maybe_gauge ~series:"asim.timeouts" ~labels:(labels t) ~time
    (float_of_int (Session.timeouts t.session));
  (* Latency telemetry: one gauge per percentile per primitive label.
     Everything here is a pure read of the session's deterministic
     histograms (zero-perturbation), and labels are emitted in sorted
     order so the sample stream is a pure function of the trajectory. *)
  List.iter
    (fun lbl ->
      match Session.latency t.session ~label:lbl with
      | None -> ()
      | Some h ->
        let labels = ("primitive", lbl) :: labels t in
        let gauge series v =
          Monitor.maybe_gauge ~series ~labels ~time v
        in
        gauge "asim.lat.p50" (Metrics.Histogram.Buckets.percentile h 50.0);
        gauge "asim.lat.p90" (Metrics.Histogram.Buckets.percentile h 90.0);
        gauge "asim.lat.p99" (Metrics.Histogram.Buckets.percentile h 99.0);
        gauge "asim.lat.max" (Metrics.Histogram.Buckets.max_value h);
        gauge "asim.lat.timeouts"
          (float_of_int (Session.timeouts_for t.session ~label:lbl)))
    (Session.latency_labels t.session);
  Monitor.maybe_gauge ~series:"asim.queue.depth.peak" ~labels:(labels t) ~time
    (float_of_int (Session.queue_peak t.session));
  Monitor.maybe_gauge ~series:"asim.queue.inflight.peak" ~labels:(labels t)
    ~time
    (float_of_int (Session.inflight_peak t.session))

let stats t =
  {
    (Msg_driver.stats t.inner) with
    Driver.Stats.virtual_time = Session.clock t.session;
    session_timeouts = Session.timeouts t.session;
    lat_p99 = Session.latency_p99 t.session;
  }
