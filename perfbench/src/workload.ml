(* The three benchmark workloads.  Each is a closed loop with one
   generator: the generator draws every input from the benchmark seed and
   makes one public library call at a time through [call], which times it
   as a child span in the traced run and turns a raised exception into a
   failed call of that kind instead of ending the run. *)

module Rng = Prng.Rng
module Ledger = Metrics.Ledger
module Engine = Now_core.Engine
module Params = Now_core.Params
module Node = Now_core.Node
module Config = Cluster.Config
module Session = Asim.Session
module Spec = Scenario.Spec
module Msg_driver = Scenario.Msg_driver

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

(* ---------- calls ---------- *)

(* One kind of public call: its span name and its lifetime tallies.
   [fails] counts every failed call, raised ones included. *)
type kind = {
  name : string;
  mutable calls : int;
  mutable fails : int;
  mutable raised : int;
}

let kind name = { name; calls = 0; fails = 0; raised = 0 }
let fail k = k.fails <- k.fails + 1

type ctx = {
  mutable spans : Spans.t option;  (* [Some] in the traced phase only *)
  mutable step : int;
  mutable parent : int;  (* id of the open step span *)
  mutable first_raise : string option;
}

let ctx () = { spans = None; step = 0; parent = -1; first_raise = None }

let record_raise ctx k e =
  (match e with Sys.Break -> raise e | _ -> ());
  k.raised <- k.raised + 1;
  fail k;
  if ctx.first_raise = None then
    ctx.first_raise <- Some (k.name ^ ": " ^ Printexc.to_string e)

let call ctx k f =
  k.calls <- k.calls + 1;
  match ctx.spans with
  | None -> ( match f () with v -> Some v | exception e -> record_raise ctx k e; None)
  | Some spans ->
    let id = Spans.fresh_id spans in
    let start = Spans.now_ns () in
    let r = match f () with v -> Some v | exception e -> record_raise ctx k e; None in
    Spans.add spans ~id ~name:k.name ~start ~stop:(Spans.now_ns ()) ~parent:ctx.parent
      ~step:ctx.step;
    r

(* ---------- the workload interface ---------- *)

(* Cumulative counters behind the deterministic end-to-end metrics. *)
type counters = {
  messages : int;  (* ledger messages: the modelled protocol cost *)
  sim_time : float;  (* ledger rounds (sync engines) or session clock (async) *)
  breaches : int;  (* the engine's own 2/3-honest breach counter *)
}

type t = {
  kinds : kind list;
  ledgers : Ledger.t list;  (* one per system *)
  step : ctx -> int -> unit;  (* run the schedule's step [i] *)
  counters : unit -> counters;
  layer : unit -> steps:int -> wall_ns:int -> (string * float) list;
      (* [layer ()] snapshots at the start of the traced phase and returns
         the finisher that yields this workload's per-layer readings *)
  check : unit -> unit;  (* end-of-run correctness checks *)
  close : unit -> unit;
}

let sum f kinds = List.fold_left (fun acc k -> acc + f k) 0 kinds
let attempted w = sum (fun k -> k.calls) w.kinds
let failed w = sum (fun k -> k.fails) w.kinds
let raised_total w = sum (fun k -> k.raised) w.kinds
let per n steps = if steps = 0 then 0.0 else float_of_int n /. float_of_int steps

let consistent_membership cfg =
  List.iter
    (fun cid ->
      List.iter
        (fun m ->
          check (Config.cluster_of cfg m = cid)
            "membership: node %d is listed in cluster %d but homed in %d" m cid
            (Config.cluster_of cfg m))
        (Config.members cfg cid))
    (Config.cluster_ids cfg)

let equivocate node =
  match Adversary.Behavior.of_name ~seed:(node + 1) "equivocate" with
  | Ok b -> b
  | Error msg -> invalid_arg msg

(* ---------- state-scale: Now_core.Engine at E15 scale ---------- *)

let tau = 0.15
let n0 = 100_000

let population gen ~n =
  let byz = int_of_float (tau *. float_of_int n) in
  let a = Array.init n (fun i -> if i < byz then Node.Byzantine else Node.Honest) in
  Rng.shuffle_in_place gen a;
  Array.to_list a

let byz_total e = List.fold_left (fun acc (_, _, b) -> acc + b) 0 (Engine.cluster_stats e)

let state ~seed =
  let gen = Rng.create (Int64.of_int seed) in
  let params =
    Params.make ~k:8 ~tau ~walk_mode:Params.Direct_sample ~shuffle_on_churn:false
      ~allow_split_merge:true ~n_max:(1 lsl 17) ()
  in
  let initial = population (Rng.split gen) ~n:n0 in
  let e = Engine.create_scaled ~seed:(Rng.bits64 gen) params ~initial in
  let labels = [ ("bench", "state-scale") ] in
  let monitor = Monitor.create () and recorder = Audit.create () in
  Monitor.install monitor;
  Audit.install recorder;
  let k_join = kind "core.join" and k_leave = kind "core.leave" in
  let k_epoch = kind "core.epoch" in
  let k_monitor = kind "monitor.sample" and k_audit = kind "audit.frame" in
  let kinds = [ k_join; k_leave; k_epoch; k_monitor; k_audit ] in
  let exchanges = ref 0 and hops = ref 0 and splits = ref 0 and merges = ref 0 in
  let report (r : Engine.op_report) =
    exchanges := !exchanges + r.walks;
    hops := !hops + r.walk_hops;
    splits := !splits + r.splits;
    merges := !merges + r.merges
  in
  let step ctx i =
    let honesty = if Rng.bernoulli gen tau then Node.Byzantine else Node.Honest in
    Option.iter (fun (_, r) -> report r) (call ctx k_join (fun () -> Engine.join e honesty));
    Option.iter report (call ctx k_leave (fun () -> Engine.leave e (Engine.random_node e)));
    if i mod 100 = 0 then begin
      ignore (call ctx k_monitor (fun () -> Monitor.maybe_sample_engine ~labels ~time:i e));
      ignore (call ctx k_audit (fun () -> Audit.maybe_record_engine ~labels ~step:i e))
    end;
    if i mod 1000 = 0 then begin
      (* Lemma 1: an epoch only permutes nodes between clusters. *)
      let before = byz_total e in
      match call ctx k_epoch (fun () -> Engine.exchange_epoch e) with
      | Some r ->
        report r;
        let after = byz_total e in
        check (after = before) "exchange_epoch moved the Byzantine count from %d to %d"
          before after
      | None -> ()
    end
  in
  let observed () =
    ( Monitor.Store.n_samples monitor,
      Monitor.Store.n_violations monitor,
      Audit.Recorder.n_frames recorder )
  in
  let layer () =
    let x0 = !exchanges and h0 = !hops and s0 = !splits and m0 = !merges in
    let raised0 = sum (fun k -> k.raised) kinds in
    let ex0 = Exec.stats () and epochs0 = k_epoch.calls in
    let samples0, violations0, frames0 = observed () in
    fun ~steps ~wall_ns:_ ->
      let live, cap = Now_core.Cluster_table.arena_words (Engine.table e) in
      let ex = Exec.stats () and epochs = k_epoch.calls - epochs0 in
      let tasks = ex.tasks - ex0.tasks in
      let samples, violations, frames = observed () in
      [
        ("core.exchanges_per_step", per (!exchanges - x0) steps);
        ("core.walk_hops_per_step", per (!hops - h0) steps);
        ("core.splits_per_kstep", 1000.0 *. per (!splits - s0) steps);
        ("core.merges_per_kstep", 1000.0 *. per (!merges - m0) steps);
        ("core.arena_live_words", float_of_int live);
        ("core.arena_capacity_words", float_of_int cap);
        ("core.exceptions", float_of_int (sum (fun k -> k.raised) kinds - raised0));
        ("exec.tasks_per_epoch", per tasks epochs);
        ("exec.queue_wait_ms_per_epoch", 1000.0 *. (ex.queue_wait_s -. ex0.queue_wait_s) /. float_of_int (max 1 epochs));
        ("exec.merge_stall_ms_per_epoch", 1000.0 *. (ex.merge_stall_s -. ex0.merge_stall_s) /. float_of_int (max 1 epochs));
        ("exec.caller_task_share", per (ex.caller_tasks - ex0.caller_tasks) tasks);
        ("audit.frames", float_of_int (frames - frames0));
        ("monitor.samples", float_of_int (samples - samples0));
        ("monitor.violations", float_of_int (violations - violations0));
      ]
  in
  {
    kinds;
    ledgers = [ Engine.ledger e ];
    step;
    counters =
      (fun () ->
        let l = Engine.ledger e in
        {
          messages = Ledger.total_messages l;
          sim_time = float_of_int (Ledger.total_rounds l);
          breaches = Engine.violation_events e;
        });
    layer;
    check = (fun () -> Engine.check_invariants e);
    close =
      (fun () ->
        ignore (Monitor.uninstall ());
        ignore (Audit.uninstall ()));
  }

(* ---------- replicas ---------- *)

(* The message-level workloads step [r] independent systems built from
   one seed in turn: schedule step [i] is step [i / r] of system
   [i mod r].  How often Byzantine members get churn refused varies a lot
   from one system to the next, and grows as a system drains, so msg-byz
   averages over sixteen short-lived systems; async-straggler, with
   static membership, over four. *)
let msg_replicas = 16
let async_replicas = 4
let replica r i = (i mod r, i / r)
let sum_over xs f = Array.fold_left (fun acc x -> acc + f x) 0 xs

(* ---------- msg-byz: Scenario.Msg_driver entry by entry ---------- *)

let msg_byz_spec =
  {
    Scenario.steady with
    Spec.name = "msg-byz";
    n_clusters = 16;
    cluster_size = 16;
    overlay_degree = 4;
    behavior = Some "equivocate";
    byz_per_cluster = Some 2;
    drive = { Spec.walks = true; randnum = true; valchan = true; exchange_every = Some 8 };
  }

let msg ?(spec = msg_byz_spec) ?(replicas = msg_replicas) ~seed () =
  let gen = Rng.create (Int64.of_int seed) in
  let ds = Array.init replicas (fun _ -> Msg_driver.create ~seed:(Rng.bits64 gen) spec) in
  let k_join = kind "cluster.join" and k_leave = kind "cluster.leave" in
  let k_walk = kind "cluster.walk" and k_randnum = kind "cluster.randnum" in
  let k_valchan = kind "cluster.valchan" and k_exchange = kind "cluster.exchange" in
  let k_scan = kind "scenario.scan" in
  let kinds = [ k_join; k_leave; k_walk; k_randnum; k_valchan; k_exchange; k_scan ] in
  let stats f = sum_over ds (fun d -> f (Msg_driver.stats d)) in
  let messages () = sum_over ds (fun d -> Ledger.total_messages (Msg_driver.ledger d)) in
  let step ctx i =
    let r, time = replica replicas i in
    let d = ds.(r) in
    (* Run one entry point and charge a failure when the driver's tally
       named by [failures] grew during it. *)
    let driven k f failures =
      let before = failures (Msg_driver.stats d) in
      match call ctx k f with
      | Some () -> if failures (Msg_driver.stats d) > before then fail k
      | None -> ()
    in
    driven k_join (fun () -> Msg_driver.join d) (fun s -> s.churn_failures);
    driven k_leave (fun () -> Msg_driver.leave d) (fun s -> s.churn_failures);
    driven k_walk (fun () -> Msg_driver.walk_once d ~time) (fun s -> s.walks_failed);
    driven k_randnum (fun () -> Msg_driver.randnum_once d ~time) (fun s -> s.randnum_stalls);
    driven k_valchan (fun () -> Msg_driver.valchan_once d ~time) (fun s ->
        s.valchan_forged + s.valchan_rejected);
    (* The systems take turns: system [r] exchanges [r * k / replicas]
       rounds before system 0 would, so the exchanges spread evenly over
       the rounds instead of all falling in one round in [k]. *)
    (match spec.Spec.drive.exchange_every with
    | Some k when k > 0 && (time + (r * k / replicas)) mod k = 0 -> (
      match call ctx k_exchange (fun () -> Msg_driver.exchange d) with
      | Some false -> fail k_exchange
      | Some true | None -> ())
    | _ -> ());
    ignore (call ctx k_scan (fun () -> Msg_driver.scan d))
  in
  let layer () =
    let tallies =
      [
        ("cluster.churn_failures", fun (s : Scenario.Stats.t) -> s.churn_failures);
        ("cluster.walks_failed", fun s -> s.walks_failed);
        ("cluster.randnum_stalls", fun s -> s.randnum_stalls);
        ("cluster.valchan_rejected", fun s -> s.valchan_rejected);
        ("cluster.valchan_forged", fun s -> s.valchan_forged);
      ]
    in
    let t0 = List.map (fun (_, f) -> stats f) tallies in
    let raised0 = sum (fun k -> k.raised) kinds and m0 = messages () in
    fun ~steps:_ ~wall_ns ->
      let nodes = sum_over ds (fun d -> Config.n_nodes (Msg_driver.config d)) in
      List.map2 (fun (name, f) v0 -> (name, float_of_int (stats f - v0))) tallies t0
      @ [
          ("cluster.exceptions", float_of_int (sum (fun k -> k.raised) kinds - raised0));
          ("cluster.final_nodes", float_of_int nodes);
          ("simkernel.host_ns_per_msg", per wall_ns (messages () - m0));
        ]
  in
  {
    kinds;
    ledgers = Array.to_list (Array.map Msg_driver.ledger ds);
    step;
    counters =
      (fun () ->
        {
          messages = messages ();
          sim_time = float_of_int (stats (fun s -> s.rounds));
          breaches = stats (fun s -> s.majority_violations);
        });
    layer;
    check =
      (fun () ->
        Array.iter (fun d -> consistent_membership (Msg_driver.config d)) ds;
        (* randnum_once bins a draw only when it lies in [0, range). *)
        let binned = sum_over ds (fun d -> Array.fold_left ( + ) 0 (Msg_driver.randnum_hist d)) in
        check (binned = k_randnum.calls - k_randnum.raised)
          "randNum: %d of %d draws fell in range" binned (k_randnum.calls - k_randnum.raised));
    close = ignore;
  }

(* ---------- async-straggler: Asim.Session over a static configuration ---------- *)

type async_system = {
  cfg : Config.t;
  session : Session.t;
  scanner : Msg_driver.t;
  ids : int array;
}

let async ~seed =
  let gen = Rng.create (Int64.of_int seed) in
  let delay =
    match Asim.Delay.of_name "straggler:every=4,factor=8" with
    | Ok d -> d
    | Error msg -> invalid_arg msg
  in
  let system _ =
    let cfg =
      Config.build_uniform ~rng:(Rng.split gen) ~ledger:(Ledger.create ()) ~behavior:equivocate
        ~n_clusters:64 ~cluster_size:16 ~byz_per_cluster:2 ~overlay_degree:4 ()
    in
    let session = Session.create ~rng:(Rng.split gen) ~delay cfg in
    (* The scan is Msg_driver's read-only cluster scan over the same
       configuration; the scanner draws nothing. *)
    let scanner =
      Msg_driver.of_config ~rng:(Rng.split gen)
        { msg_byz_spec with Spec.name = "async-straggler"; churn = Spec.Static; n_clusters = 64 }
        cfg
    in
    { cfg; session; scanner; ids = Array.of_list (Config.cluster_ids cfg) }
  in
  let systems = Array.init async_replicas system in
  let k_transmit = kind "asim.transmit" and k_randnum = kind "asim.randnum" in
  let k_rand_cl = kind "asim.rand_cl" and k_exchange = kind "asim.exchange" in
  let k_scan = kind "scenario.scan" in
  let kinds = [ k_transmit; k_randnum; k_rand_cl; k_exchange; k_scan ] in
  let forged = ref 0 in
  let step ctx i =
    let { cfg; session = s; scanner; ids } = systems.(fst (replica async_replicas i)) in
    let n = Array.length ids in
    let si = Rng.int gen n in
    let src = ids.(si) and dst = ids.((si + 1 + Rng.int gen (n - 1)) mod n) in
    let payload = 1 + Rng.int gen 1_000_000 in
    (match
       call ctx k_transmit (fun () ->
           Session.transmit s ~src_cluster:src ~dst_cluster:dst ~payload ())
     with
    | Some (res, _) ->
      let deviant = function Some v -> v <> payload | None -> false in
      let is_forged = List.exists (fun (_, v) -> deviant v) res.Cluster.Valchan.verdicts in
      (match res.unanimous with
      | Some v ->
        check (is_forged || v = payload) "valChan accepted %d for payload %d unflagged" v payload;
        check
          (List.for_all (fun (_, w) -> w = Some v) res.verdicts)
          "valChan reported unanimous %d over split verdicts" v
      | None -> ());
      if is_forged then begin
        incr forged;
        fail k_transmit
      end
      else if res.unanimous <> Some payload then fail k_transmit
    | None -> ());
    let cluster = Rng.pick gen ids in
    (match call ctx k_randnum (fun () -> Session.randnum s ~cluster ~range:64) with
    | Some (o, _) ->
      check (o.Cluster.Randnum.value >= 0 && o.value < 64) "randNum value %d outside [0, 64)"
        o.value;
      if o.stalled then fail k_randnum
    | None -> ());
    let start = Rng.pick gen ids in
    (match call ctx k_rand_cl (fun () -> Session.rand_cl s ~start ()) with
    | Some (Error _, _) -> fail k_rand_cl
    | Some (Ok _, _) | None -> ());
    let node = Rng.pick_list gen (Config.members cfg (Rng.pick gen ids)) in
    (match call ctx k_exchange (fun () -> Session.exchange_node s ~node ()) with
    | Some (Error _, _) -> fail k_exchange
    | Some (Ok _, _) | None -> ());
    ignore (call ctx k_scan (fun () -> Msg_driver.scan scanner))
  in
  let messages () = sum_over systems (fun x -> Ledger.total_messages (Config.ledger x.cfg)) in
  let sessions f = Array.to_list (Array.map (fun x -> f x.session) systems) in
  let layer () =
    (* Failures the protocol returned, raised calls excluded. *)
    let refused k = k.fails - k.raised in
    let r0 = List.map (fun k -> (k, refused k)) kinds and f0 = !forged in
    let raised0 = sum (fun k -> k.raised) kinds in
    let timeouts0 = sum_over systems (fun x -> Session.timeouts x.session) in
    let m0 = messages () in
    fun ~steps ~wall_ns ->
      let since k = float_of_int (refused k - List.assq k r0) in
      let peak f = float_of_int (List.fold_left max 0 (sessions f)) in
      [
        ("asim.transmit_failures", since k_transmit);
        ("asim.transmit_forged", float_of_int (!forged - f0));
        ("asim.randnum_stalls", since k_randnum);
        ("asim.rand_cl_failures", since k_rand_cl);
        ("asim.exchange_failures", since k_exchange);
        ("asim.exceptions", float_of_int (sum (fun k -> k.raised) kinds - raised0));
        ("asim.host_ns_per_msg", per wall_ns (messages () - m0));
        ("asim.queue_peak", peak Session.queue_peak);
        ("asim.inflight_peak", peak Session.inflight_peak);
        ( "asim.timeouts_per_step",
          per (sum_over systems (fun x -> Session.timeouts x.session) - timeouts0) steps );
        ("asim.virtual_p99", List.fold_left Float.max 0.0 (sessions Session.latency_p99));
      ]
  in
  {
    kinds;
    ledgers = Array.to_list (Array.map (fun x -> Config.ledger x.cfg) systems);
    step;
    counters =
      (fun () ->
        {
          messages = messages ();
          sim_time = List.fold_left ( +. ) 0.0 (sessions Session.clock);
          breaches = sum_over systems (fun x -> (Msg_driver.stats x.scanner).majority_violations);
        });
    layer;
    check = (fun () -> Array.iter (fun x -> consistent_membership x.cfg) systems);
    close = ignore;
  }

(* ---------- the catalogue ---------- *)

type spec = {
  name : string;
  chunk : int;
      (* steps per timing chunk: whole schedule periods, so every chunk
         makes the same mix of calls.  The timed phase runs whole chunks,
         and host time is read at every chunk boundary (see
         [Bench.steps_per_cpu_s_p10]). *)
  warmup : int;  (* untimed steps run as part of set-up *)
  steps_per_second : float;
      (* sizes the timed phase: [--seconds S] runs about S times this many
         steps, which takes about S seconds on the reference host *)
  setups : int;  (* builds per run; setup_s is their median *)
  jobs : int;  (* Exec pool domains *)
  make : seed:int -> t;
}

(* The timed phase's step count for [--seconds], in whole chunks: fixed
   per workload and run length, so every host measures the same work. *)
let steps spec ~seconds =
  let n = int_of_float (Float.ceil ((seconds *. spec.steps_per_second /. float_of_int spec.chunk) -. 1e-9)) in
  spec.chunk * max 1 n

let catalogue =
  [
    {
      name = "state-scale";
      chunk = 1000;  (* one epoch, ten monitor samples and ten audit frames *)
      warmup = 100;
      steps_per_second = 1000.0;
      setups = 7;
      jobs = 2;
      make = (fun ~seed -> state ~seed);
    };
    {
      name = "msg-byz";
      chunk = msg_replicas;  (* one round over the systems, holding two exchanges *)
      warmup = msg_replicas;
      steps_per_second = 6.4;
      setups = 101;
      jobs = 1;
      make = (fun ~seed -> msg ~seed ());
    };
    {
      name = "async-straggler";
      chunk = 10 * async_replicas;
      warmup = async_replicas;
      steps_per_second = 55.0;
      setups = 101;
      jobs = 1;
      make = (fun ~seed -> async ~seed);
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) catalogue
