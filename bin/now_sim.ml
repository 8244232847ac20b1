(* now_sim — command-line driver for the NOW/OVER reproduction.

   Sub-commands:
     experiments   run the paper-reproduction experiment suite (E1..E13, F1-F2, A1-A2)
     churn         run a free-form adversarial churn simulation
     resume        resume a churn simulation from a saved snapshot
     scenario      run a named scenario from the registry on either engine
     byz           inject a Byzantine behaviour into the message engine
     trace         record a deterministic trace + per-primitive profile
     monitor       time-series sample the paper's invariants, export a dashboard
     audit         record the canonical per-subsystem digest stream of a run
     bisect        find the first step/subsystem where two runs diverge
     init          run only the initialisation phase and report its cost

   The byz / trace / monitor / scenario sub-commands are thin wrappers
   over lib/scenario: a scenario spec (from the registry or flags) is
   handed to the engine-agnostic drivers, and every cell derives all its
   randomness from --seed (default 42) plus the cell index — outputs are
   byte-identical for any -j and across reruns. *)

open Cmdliner

module Engine = Now_core.Engine
module Params = Now_core.Params
module Node = Now_core.Node
module Rng = Prng.Rng

(* ---------------- shared options ---------------- *)

let seed_t =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:
          "PRNG seed (default 42).  Every sub-command derives all of its \
           randomness from this seed, so equal invocations produce \
           byte-identical outputs.")

let n_max_t =
  Arg.(
    value
    & opt int (1 lsl 14)
    & info [ "n-max" ] ~docv:"N" ~doc:"Name-space bound N (max network size).")

let n0_t =
  Arg.(
    value & opt int 1000
    & info [ "n0" ] ~docv:"N0" ~doc:"Initial network size (>= sqrt N).")

let k_t =
  Arg.(
    value & opt int 8
    & info [ "k" ] ~docv:"K" ~doc:"Cluster-size security parameter (|C| ~ k log2 N).")

let tau_t =
  Arg.(
    value & opt float 0.15
    & info [ "tau" ] ~docv:"TAU" ~doc:"Fraction of Byzantine nodes (< 1/3).")

let exact_walk_t =
  Arg.(
    value & flag
    & info [ "exact-walk" ]
        ~doc:"Run real biased CTRWs for randCl instead of direct sampling.")

let no_shuffle_t =
  Arg.(
    value & flag
    & info [ "no-shuffle" ]
        ~doc:"Disable the exchange shuffling (the vulnerable baseline).")

let verbose_t =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Log protocol events (splits, merges, violations).")

let jobs_t =
  let positive_int =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok j when j >= 1 -> Ok j
      | Ok j -> Error (`Msg (Printf.sprintf "expected a positive job count, got %d" j))
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the deterministic Exec pool (default: \
           available cores).  Results are byte-identical for any $(docv); \
           $(b,-j 1) reproduces the sequential run.")

let setup_jobs jobs =
  match jobs with Some j -> Exec.set_default_jobs j | None -> ()

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let make_params ~n_max ~k ~tau ~exact_walk ~no_shuffle =
  Params.make ~n_max ~k ~tau
    ~walk_mode:(if exact_walk then Params.Exact_walk else Params.Direct_sample)
    ~shuffle_on_churn:(not no_shuffle) ()

let make_engine ~seed ~params ~n0 ~tau =
  let rng = Rng.of_int (seed + 1) in
  let initial = Harness.Common.initial_population rng ~n:n0 ~tau in
  Engine.create ~seed:(Int64.of_int seed) params ~initial

let write_file path data =
  let oc = open_out path in
  output_string oc data;
  close_out oc

(* ---------------- experiments ---------------- *)

let experiments_cmd =
  let ids_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (E1..E13, F1, F2, A1, A2); default all.")
  in
  let full_t =
    Arg.(value & flag & info [ "full" ] ~doc:"EXPERIMENTS.md scale (slow).")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write each result table as DIR/<id>.csv.")
  in
  let list_t =
    Arg.(value & flag & info [ "list" ] ~doc:"List the experiment ids and exit.")
  in
  let monitor_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "monitor" ] ~docv:"DIR"
          ~doc:
            "Sample the paper's invariants while the experiments run and \
             write DIR/monitor.{jsonl,csv,html}.  Sampling never touches \
             a random stream, so every table is byte-identical with \
             monitoring on or off.")
  in
  let cadence_t =
    Arg.(
      value & opt int 1
      & info [ "cadence" ] ~docv:"K"
          ~doc:"Monitor sampling period in sim-time units (with $(b,--monitor)).")
  in
  let run ids full csv list monitor_dir cadence jobs =
    setup_jobs jobs;
    if list then begin
      (* Natural order: alphabetic family, then numeric suffix — so E2
         sorts before E10 and the ablations lead with A1, A2. *)
      let natural_key id =
        let is_digit c = c >= '0' && c <= '9' in
        let rec first_digit i =
          if i >= String.length id || is_digit id.[i] then i
          else first_digit (i + 1)
        in
        let split = first_digit 0 in
        let num =
          if split >= String.length id then 0
          else int_of_string (String.sub id split (String.length id - split))
        in
        (String.sub id 0 split, num)
      in
      Harness.Registry.descriptions
      |> List.sort (fun (a, _) (b, _) -> compare (natural_key a) (natural_key b))
      |> List.iter (fun (id, desc) -> Printf.printf "%-4s %s\n" id desc);
      `Ok ()
    end
    else if cadence < 1 then `Error (true, "cadence must be >= 1")
    else begin
    match List.filter (fun id -> Harness.Registry.find id = None) ids with
    | _ :: _ as unknown ->
      `Error
        ( false,
          Printf.sprintf "unknown experiment id(s): %s; available: %s"
            (String.concat ", " unknown)
            (String.concat ", " (List.map fst Harness.Registry.all)) )
    | [] ->
    let mode = if full then Harness.Common.Full else Harness.Common.Quick in
    let store =
      match monitor_dir with
      | None -> None
      | Some _ -> Some (Monitor.create ~cadence ())
    in
    let results =
      match store with
      | None -> Harness.Registry.run_ids ~mode ids
      | Some m ->
        Monitor.with_monitor m (fun () -> Harness.Registry.run_ids ~mode ids)
    in
    (match (store, monitor_dir) with
    | Some m, Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let w name data =
        let path = Filename.concat dir name in
        write_file path data;
        Printf.printf "wrote %s\n" path
      in
      w "monitor.jsonl" (Monitor.Export.jsonl_string m);
      w "monitor.csv" (Monitor.Export.csv_string m);
      w "monitor.html"
        (Monitor.Dashboard.render ~title:"nowlib experiments — invariant monitor" m)
    | _ -> ());
    (match csv with
    | None -> ()
    | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun r ->
          let path = Filename.concat dir (r.Harness.Common.id ^ ".csv") in
          let oc = open_out path in
          output_string oc (Metrics.Table.to_csv r.Harness.Common.table);
          close_out oc;
          Printf.printf "wrote %s\n" path)
        results);
    let ok = List.length (List.filter (fun r -> r.Harness.Common.ok) results) in
    Printf.printf "==> %d/%d experiments reproduce the paper's shape.\n" ok
      (List.length results);
    if ok = List.length results then `Ok ()
    else `Error (false, "some experiments mismatched")
    end
  in
  let term =
    Term.(
      ret
        (const run $ ids_t $ full_t $ csv_t $ list_t $ monitor_t $ cadence_t
       $ jobs_t))
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Run the paper-reproduction experiment suite (DESIGN.md section 4).")
    term

(* ---------------- churn ---------------- *)

let strategy_t =
  Arg.(
    value & opt string "random"
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:"Adversary strategy ($(b,--list-strategies) shows the set).")

let list_strategies_t =
  Arg.(
    value & flag
    & info [ "list-strategies" ] ~doc:"List the adversary strategies and exit.")

let print_catalogue catalogue =
  List.iter (fun (name, doc) -> Printf.printf "%-14s %s\n" name doc) catalogue

let steps_t =
  Arg.(value & opt int 2000 & info [ "steps" ] ~docv:"STEPS" ~doc:"Time steps to run.")

let snapshot_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-snapshot" ] ~docv:"FILE"
        ~doc:"Write the final engine state to FILE (resume with $(b,resume)).")

let drive_and_report ~engine ~seed ~tau ~strategy ~steps ~snapshot_out =
  let driver =
    Adversary.create ~seed:(Int64.of_int (seed + 7)) ~tau ~strategy engine
  in
  let sample d =
    Printf.printf
      "step %6d  n=%6d  #C=%4d  min honest=%.3f  target byz=%.3f  events=%d\n%!"
      (Adversary.steps_done d) (Engine.n_nodes engine) (Engine.n_clusters engine)
      (Engine.min_honest_fraction engine)
      (Adversary.target_byz_fraction d)
      (Engine.violation_events engine)
  in
  Adversary.run ~steps_per_sample:(max 1 (steps / 10)) driver ~steps ~on_sample:sample;
  Engine.check_invariants engine;
  let h = Engine.overlay_health engine in
  Printf.printf "\nsummary after %d steps (%s):\n" steps
    (Adversary.strategy_name strategy);
  Printf.printf "  honest-fraction floor : %.3f\n"
    (Adversary.min_honest_fraction_seen driver);
  Printf.printf "  standing violations   : %d (events: %d)\n"
    (Engine.violations_now engine)
    (Engine.violation_events engine);
  Printf.printf "  overlay               : %s\n" (Format.asprintf "%a" Over.pp_health h);
  Printf.printf "  total messages        : %d\n"
    (Metrics.Ledger.total_messages (Engine.ledger engine));
  let t = Engine.totals engine in
  Printf.printf "  lifetime ops          : %d joins, %d leaves, %d splits, %d \
                 merges, %d rejoins\n"
    t.Engine.total_joins t.Engine.total_leaves t.Engine.total_splits
    t.Engine.total_merges t.Engine.total_rejoins;
  match snapshot_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Engine.save engine);
    close_out oc;
    Printf.printf "  snapshot saved        : %s\n" path

let churn_cmd =
  let run seed n_max n0 k tau exact_walk no_shuffle strategy steps verbose
      snapshot_out list_strategies =
    if list_strategies then begin
      print_catalogue Adversary.strategy_catalogue;
      `Ok ()
    end
    else
      match Adversary.strategy_of_name ~steps strategy with
      | Error msg -> `Error (false, msg)
      | Ok strategy ->
        setup_logs verbose;
        let params = make_params ~n_max ~k ~tau ~exact_walk ~no_shuffle in
        Printf.printf "parameters: %s\n" (Format.asprintf "%a" Params.pp params);
        let engine = make_engine ~seed ~params ~n0 ~tau in
        Printf.printf "initialised: n=%d clusters=%d min honest=%.3f\n%!"
          (Engine.n_nodes engine) (Engine.n_clusters engine)
          (Engine.min_honest_fraction engine);
        drive_and_report ~engine ~seed ~tau ~strategy ~steps ~snapshot_out;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ seed_t $ n_max_t $ n0_t $ k_t $ tau_t $ exact_walk_t
       $ no_shuffle_t $ strategy_t $ steps_t $ verbose_t $ snapshot_out_t
       $ list_strategies_t))
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Run an adversarial churn simulation and report safety metrics.")
    term

(* ---------------- resume ---------------- *)

let resume_cmd =
  let snapshot_in_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "snapshot" ] ~docv:"FILE" ~doc:"Snapshot written by $(b,churn --save-snapshot).")
  in
  let run seed snapshot_path strategy steps verbose snapshot_out =
    match Adversary.strategy_of_name ~steps strategy with
    | Error msg -> `Error (false, msg)
    | Ok strategy ->
      setup_logs verbose;
      let ic = open_in snapshot_path in
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      let engine = Engine.load data in
      let tau = (Engine.params engine).Params.tau in
      Printf.printf "resumed: n=%d clusters=%d at time step %d\n%!"
        (Engine.n_nodes engine) (Engine.n_clusters engine) (Engine.time_step engine);
      drive_and_report ~engine ~seed ~tau ~strategy ~steps ~snapshot_out;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ seed_t $ snapshot_in_t $ strategy_t $ steps_t $ verbose_t
       $ snapshot_out_t))
  in
  Cmd.v
    (Cmd.info "resume" ~doc:"Resume a churn simulation from a saved snapshot.")
    term

(* ---------------- byz ---------------- *)

(* Fault-injection scenario: a fixed message-level population where a
   [tau] fraction of every cluster runs the requested behaviour, driven
   through all four primitives under a trace collector; every injected
   deviation surfaces as a byz.* point, counted and reported. *)
let byz_cmd =
  let behavior_t =
    Arg.(
      value & opt string "equivocate"
      & info [ "behavior" ] ~docv:"BEHAVIOR"
          ~doc:"Byzantine behaviour to inject ($(b,--list) shows the set).")
  in
  let byz_tau_t =
    Arg.(
      value & opt float 0.25
      & info [ "tau" ] ~docv:"TAU"
          ~doc:"Corrupted fraction of every cluster (rounded to members).")
  in
  let list_t =
    Arg.(value & flag & info [ "list" ] ~doc:"List the behaviours and exit.")
  in
  let trials_t =
    Arg.(
      value & opt int 10
      & info [ "trials" ] ~docv:"N" ~doc:"Transfers/draws/walks per primitive.")
  in
  let run behavior tau list trials seed =
    if list then begin
      print_catalogue Adversary.Behavior.catalogue;
      `Ok ()
    end
    else if tau < 0.0 || tau > 1.0 then `Error (true, "tau must be within [0, 1]")
    else if trials < 1 then `Error (true, "need at least one trial")
    else
      match Adversary.Behavior.of_name behavior with
      | Error msg -> `Error (false, msg)
      | Ok _ ->
        Trace.start ();
        let n_clusters = 6 and cluster_size = 12 in
        let byz_per_cluster =
          min cluster_size
            (int_of_float ((tau *. float_of_int cluster_size) +. 0.5))
        in
        (* The historical byz geometry as a scenario spec; the primitives
           are then driven one by one through the message-level driver,
           on the same [Rng.of_int (seed + 11)] stream as always. *)
        let spec =
          {
            Scenario.Spec.default with
            Scenario.Spec.name = "byz";
            churn = Scenario.Spec.Static;
            drive = Scenario.Spec.no_drive;
            behavior = Some behavior;
            n_clusters;
            cluster_size;
            overlay_degree = 3;
            byz_per_cluster = Some byz_per_cluster;
            randnum_range = 1_000;
            walk_duration = None;
          }
        in
        let d = Scenario.Msg_driver.of_rng ~rng:(Rng.of_int (seed + 11)) spec in
        (* Validated transfers around the overlay. *)
        for i = 1 to trials do
          Scenario.Msg_driver.valchan_once d ~time:i
        done;
        (* randNum draws. *)
        for i = 1 to trials do
          Scenario.Msg_driver.randnum_once d ~time:i
        done;
        (* randCl walks. *)
        for i = 1 to trials do
          Scenario.Msg_driver.walk_once d ~time:i
        done;
        (* One full exchange. *)
        let exchange_ok = Scenario.Msg_driver.exchange d in
        let s = Scenario.Msg_driver.stats d in
        let dump = Trace.stop () in
        (* Tally the injected deviations (the byz.-prefixed points) and the
           honest-side detections (walk.retry, randnum.stall). *)
        let tally = Hashtbl.create 16 in
        List.iter
          (fun item ->
            match item with
            | Trace.Mark { name; _ } ->
              let interesting =
                String.length name >= 4 && String.sub name 0 4 = "byz."
                || name = "walk.retry" || name = "randnum.stall"
              in
              if interesting then
                Hashtbl.replace tally name
                  (1 + Option.value ~default:0 (Hashtbl.find_opt tally name))
            | Trace.Span _ -> ())
          (Trace.items dump);
        Printf.printf "behavior %s at tau %.2f: %d/%d corrupted per cluster\n\n"
          behavior tau byz_per_cluster cluster_size;
        Printf.printf "  valchan : %d transfers — %d honest-accepted, %d forged, %d rejected\n"
          trials s.Scenario.Stats.valchan_accepted s.Scenario.Stats.valchan_forged
          s.Scenario.Stats.valchan_rejected;
        Printf.printf "  randnum : %d draws — %d stalled, %d insecure\n" trials
          s.Scenario.Stats.randnum_stalls s.Scenario.Stats.randnum_insecure;
        Printf.printf "  randcl  : %d walks — %d completed (%d hop retries), %d failed\n"
          trials s.Scenario.Stats.walks_ok s.Scenario.Stats.walk_retries
          s.Scenario.Stats.walks_failed;
        Printf.printf "  exchange: %s\n\n" (if exchange_ok then "completed" else "failed");
        let deviations =
          Hashtbl.fold (fun name c acc -> (name, c) :: acc) tally []
          |> List.sort compare
        in
        if deviations = [] then print_endline "  no deviation points recorded"
        else begin
          print_endline "  deviation / detection points:";
          List.iter (fun (name, c) -> Printf.printf "    %-24s %6d\n" name c) deviations
        end;
        print_newline ();
        print_string (Trace.Report.render (Trace.Report.of_dump dump));
        `Ok ()
  in
  let term =
    Term.(ret (const run $ behavior_t $ byz_tau_t $ list_t $ trials_t $ seed_t))
  in
  Cmd.v
    (Cmd.info "byz"
       ~doc:
         "Inject a Byzantine behaviour into the message engine and report \
          every deviation.")
    term

(* ---------------- shared scenario-cell options ---------------- *)

(* The trace / monitor / scenario sub-commands all fan the same cell
   construction out on the Exec pool: cell [i] of a spec runs on the
   state-level engine, the message-level engine, or alternates between
   them ([Scenario.cell_driver]), with all randomness derived from
   --seed and [i]. *)

(* Built on [Scenario.engine_of_name] rather than [Arg.enum] so an
   unknown name gets the library's catalogue-listing error, and the
   engine list lives in exactly one place. *)
let engine_conv =
  let parse s =
    match Scenario.engine_of_name (String.lowercase_ascii s) with
    | Ok e -> Ok e
    | Error msg -> Error (`Msg msg)
  in
  let print fmt e = Format.pp_print_string fmt (Scenario.engine_name e) in
  Arg.conv ~docv:"ENGINE" (parse, print)

let engine_pos_t ~what =
  Arg.(
    value & pos 0 engine_conv `Mixed
    & info [] ~docv:"ENGINE"
        ~doc:
          (Printf.sprintf
             "What to %s: $(b,state) (state-level engine cells), $(b,msg) \
              (message-level kernel cells), $(b,async) (discrete-event \
              cells with per-link latency) or $(b,mixed) \
              (state/msg alternating; default)."
             what))

let scenario_name_t ~default =
  Arg.(
    value & opt string default
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf
             "Scenario to drive (default $(b,%s)); $(b,scenario --list) \
              shows the registry.  Strategy scenarios accept parameters, \
              e.g. $(b,flash-crowd:size=400,at=100)."
             default))

let opt_steps_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "steps" ] ~docv:"STEPS"
        ~doc:"Operations per cell (default: the scenario's own step count).")

let cells_t ~doc =
  Arg.(value & opt int 4 & info [ "cells" ] ~docv:"CELLS" ~doc)

(* Resolve the CLI's scenario choices into a runnable spec, or a
   CLI-friendly error. *)
let resolve_spec ~engine ~scenario ~steps =
  match Scenario.of_name ?steps scenario with
  | Error msg -> Error msg
  | Ok spec -> (
    let spec =
      match steps with
      | None -> spec
      | Some steps -> { spec with Scenario.Spec.steps }
    in
    match Scenario.check_supported engine spec with
    | Error msg -> Error msg
    | Ok () -> Ok spec)

let total_messages results =
  List.fold_left
    (fun acc (_, s) -> acc + s.Scenario.Stats.messages)
    0 results

(* Opt-in Exec-pool introspection, shared by trace and monitor.  The
   block prints after every gated byte (exports are files, the stats go
   to stdout last) and the flag defaults to off, so enabling it cannot
   perturb a byte-identity contract — the wall-clock fields are
   explicitly non-deterministic. *)
let exec_stats_t =
  Arg.(
    value & flag
    & info [ "exec-stats" ]
        ~doc:
          "After the run, print the Exec pool's scheduling counters \
           (tasks per worker rank, spawn/budget decisions, queue-wait and \
           merge-stall wall time).  Wall-clock figures are \
           non-deterministic; no exported file changes.")

let print_exec_stats () =
  let s = Exec.stats () in
  Printf.printf
    "\nexec pool: %d par_map calls, %d tasks (%d run by callers), %d \
     workers spawned, %d budget denials\n"
    s.Exec.par_calls s.Exec.tasks s.Exec.caller_tasks s.Exec.workers_spawned
    s.Exec.budget_denials;
  Printf.printf "  queue wait %.3fs total, merge stall %.3fs (wall clock, \
                 non-deterministic)\n"
    s.Exec.queue_wait_s s.Exec.merge_stall_s;
  if Array.length s.Exec.worker_tasks > 0 then begin
    print_string "  tasks per worker rank:";
    Array.iter (fun n -> Printf.printf " %d" n) s.Exec.worker_tasks;
    print_newline ()
  end

(* ---------------- trace ---------------- *)

let trace_cmd =
  let engine_t = engine_pos_t ~what:"trace" in
  let out_t =
    Arg.(
      value & opt string "trace.jsonl"
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSONL trace to FILE.")
  in
  let chrome_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome trace_event JSON to FILE (load in Perfetto \
             or chrome://tracing).")
  in
  let cells_t =
    cells_t
      ~doc:
        "Independent simulation cells, fanned out on the Exec pool; the \
         merged trace is byte-identical for any $(b,-j)."
  in
  let net_detail_t =
    Arg.(
      value & flag
      & info [ "net-detail" ]
          ~doc:
            "Also record one point per kernel message, round boundary and \
             walk hop (voluminous).")
  in
  let profile_alloc_t =
    Arg.(
      value & flag
      & info [ "profile-alloc" ]
          ~doc:
            "Record per-span allocation deltas ($(b,Gc.allocated_bytes) on \
             the span's own domain) into the trace and add alloc columns \
             to the profile report.  Informational: allocation is not part \
             of any byte-identity gate.")
  in
  let run engine scenario out chrome cells steps net_detail profile_alloc
      exec_stats seed jobs =
    setup_jobs jobs;
    if cells < 1 then `Error (true, "need at least one cell")
    else
      match resolve_spec ~engine ~scenario ~steps with
      | Error msg -> `Error (false, msg)
      | Ok spec ->
        let steps = spec.Scenario.Spec.steps in
        Trace.start ~net_detail ~profile_alloc ();
        let results = Scenario.cells ~engine ~seed ~cells spec in
        let dump = Trace.stop () in
        write_file out (Trace.to_jsonl dump);
        (match chrome with
        | None -> ()
        | Some path -> write_file path (Trace.to_chrome dump));
        let items = Trace.items dump in
        let spans =
          List.length
            (List.filter (function Trace.Span _ -> true | Trace.Mark _ -> false) items)
        in
        Printf.printf
          "scenario %s on %s: %d cells x %d steps, %d simulated messages\n\
           trace: %d spans, %d items, %d dropped -> %s%s\n\n"
          spec.Scenario.Spec.name (Scenario.engine_name engine) cells steps
          (total_messages results) spans (List.length items) dump.Trace.dropped
          out
          (match chrome with None -> "" | Some p -> Printf.sprintf " (+ %s)" p);
        print_string (Trace.Report.render (Trace.Report.of_dump dump));
        if exec_stats then print_exec_stats ();
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ engine_t $ scenario_name_t ~default:"steady" $ out_t
       $ chrome_t $ cells_t $ opt_steps_t $ net_detail_t $ profile_alloc_t
       $ exec_stats_t $ seed_t $ jobs_t))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace a deterministic scenario and print the per-primitive \
          profile report.")
    term

(* ---------------- monitor ---------------- *)

let monitor_cmd =
  let engine_t = engine_pos_t ~what:"monitor" in
  let out_t =
    Arg.(
      value & opt string "monitor.jsonl"
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSONL series to FILE.")
  in
  let csv_out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the flat CSV to FILE.")
  in
  let html_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "html" ] ~docv:"FILE"
          ~doc:
            "Also write the self-contained SVG dashboard (no external \
             assets) to FILE.")
  in
  let cells_t =
    cells_t
      ~doc:
        "Independent simulation cells, fanned out on the Exec pool; every \
         output is byte-identical for any $(b,-j)."
  in
  let cadence_t =
    Arg.(
      value & opt int 1
      & info [ "cadence" ] ~docv:"K"
          ~doc:"Sample the gauges every K-th sim-time step.")
  in
  let behavior_t =
    Arg.(
      value & opt string "equivocate"
      & info [ "behavior" ] ~docv:"BEHAVIOR"
          ~doc:
            "Byzantine behaviour for the msg cells ($(b,byz --list) shows \
             the set).")
  in
  let byz_tau_t =
    Arg.(
      value & opt float 0.15
      & info [ "byz-tau" ] ~docv:"TAU"
          ~doc:
            "Corrupted fraction of every msg-cell cluster; above 1/3 the \
             honest-fraction bound breaches and the monitor records the \
             violations.")
  in
  let run engine scenario out csv html cells steps cadence behavior byz_tau
      exec_stats seed jobs =
    setup_jobs jobs;
    if cells < 1 then `Error (true, "need at least one cell")
    else if (match steps with Some s -> s < 1 | None -> false) then
      `Error (true, "need at least one step")
    else if cadence < 1 then `Error (true, "cadence must be >= 1")
    else if byz_tau < 0.0 || byz_tau > 1.0 then
      `Error (true, "byz-tau must be within [0, 1]")
    else
      match Adversary.Behavior.of_name behavior with
      | Error msg -> `Error (false, msg)
      | Ok _ -> (
      match resolve_spec ~engine ~scenario ~steps with
      | Error msg -> `Error (false, msg)
      | Ok spec ->
        (* The monitor's msg cells always inject the requested behaviour
           at the requested corruption level — above 1/3 the honest-
           fraction bound breaches by construction (the demonstrated
           violation path). *)
        let spec =
          {
            spec with
            Scenario.Spec.behavior = Some behavior;
            byz_per_cluster =
              Some
                (min spec.Scenario.Spec.cluster_size
                   (int_of_float
                      ((byz_tau
                       *. float_of_int spec.Scenario.Spec.cluster_size)
                      +. 0.5)));
          }
        in
        let steps = spec.Scenario.Spec.steps in
        let store = Monitor.create ~cadence () in
        (* The trace collector runs alongside the monitor: after the run,
           the byz.* deviation points it gathered are folded back into the
           store as per-window counter series. *)
        Trace.start ();
        let results =
          Monitor.with_monitor store (fun () ->
              Scenario.cells ~engine ~seed ~cells spec)
        in
        let dump = Trace.stop () in
        Monitor.Probe.ingest_trace store ~labels:[ ("source", "trace") ]
          ~bucket:50 dump;
        write_file out (Monitor.Export.jsonl_string store);
        Printf.printf "wrote %s\n" out;
        (match csv with
        | None -> ()
        | Some p ->
          write_file p (Monitor.Export.csv_string store);
          Printf.printf "wrote %s\n" p);
        (match html with
        | None -> ()
        | Some p ->
          write_file p (Monitor.Dashboard.render store);
          Printf.printf "wrote %s\n" p);
        Printf.printf
          "scenario %s on %s: %d cells x %d steps (cadence %d), %d simulated \
           messages\n"
          spec.Scenario.Spec.name (Scenario.engine_name engine) cells steps
          cadence (total_messages results);
        Printf.printf "samples: %d   violations: %d\n"
          (Monitor.Store.n_samples store)
          (Monitor.Store.n_violations store);
        let tally =
          List.fold_left
            (fun acc (v : Monitor.Store.violation) ->
              match acc with
              | (inv, n) :: rest when inv = v.Monitor.Store.invariant ->
                (inv, n + 1) :: rest
              | _ -> (v.Monitor.Store.invariant, 1) :: acc)
            []
            (Monitor.Store.violations store)
          |> List.rev
        in
        if tally <> [] then begin
          print_endline "breached invariants:";
          List.iter (fun (inv, n) -> Printf.printf "  %-24s %6d\n" inv n) tally
        end;
        if exec_stats then print_exec_stats ();
        `Ok ())
  in
  let term =
    Term.(
      ret
        (const run $ engine_t $ scenario_name_t ~default:"primitives" $ out_t
       $ csv_out_t $ html_t $ cells_t $ opt_steps_t $ cadence_t $ behavior_t
       $ byz_tau_t $ exec_stats_t $ seed_t $ jobs_t))
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Time-series sample the paper's invariants over a deterministic \
          scenario and export JSONL / CSV / an SVG dashboard.")
    term

(* ---------------- audit ---------------- *)

let audit_cadence_t =
  Arg.(
    value & opt int 1
    & info [ "cadence" ] ~docv:"K"
        ~doc:"Record a digest frame every K-th sim-time step.")

let audit_cmd =
  let engine_t = engine_pos_t ~what:"audit" in
  let out_t =
    Arg.(
      value & opt string "digests.jsonl"
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the digest stream to FILE.")
  in
  let cells_t =
    cells_t
      ~doc:
        "Independent simulation cells, fanned out on the Exec pool; the \
         stream is byte-identical for any $(b,-j)."
  in
  let run engine scenario out cells steps cadence seed jobs =
    setup_jobs jobs;
    if cells < 1 then `Error (true, "need at least one cell")
    else if (match steps with Some s -> s < 1 | None -> false) then
      `Error (true, "need at least one step")
    else if cadence < 1 then `Error (true, "cadence must be >= 1")
    else
      match resolve_spec ~engine ~scenario ~steps with
      | Error msg -> `Error (false, msg)
      | Ok spec ->
        let recorder = Audit.create ~cadence () in
        let results =
          Audit.with_recorder recorder (fun () ->
              Scenario.cells ~engine ~seed ~cells spec)
        in
        write_file out (Audit.Export.jsonl_string recorder);
        Printf.printf "wrote %s\n" out;
        Printf.printf
          "scenario %s on %s: %d cells x %d steps (cadence %d), %d simulated \
           messages\n\
           digest frames: %d (%d subsystems per recorded step)\n"
          spec.Scenario.Spec.name (Scenario.engine_name engine) cells
          spec.Scenario.Spec.steps cadence (total_messages results)
          (Audit.Recorder.n_frames recorder)
          (List.length Audit.Digest_of.subsystems);
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ engine_t $ scenario_name_t ~default:"steady" $ out_t
       $ cells_t $ opt_steps_t $ audit_cadence_t $ seed_t $ jobs_t))
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Record the flight recorder's canonical per-subsystem digest \
          stream over a deterministic scenario (compare runs with \
          $(b,bisect)).")
    term

(* ---------------- bisect ---------------- *)

(* The mis-seeding demo: one message-level cell on a static spec (no
   churn, no drive), stepped by hand.  Steps consume no randomness, so
   after [perturb] draws are stolen from the cell's stream between steps
   [at] and [at+1], exactly one subsystem digest — rng — differs from
   step [at+1] on: the bisection must localise to that step and name
   that subsystem. *)
let bisect_static_spec ~steps =
  {
    Scenario.Spec.default with
    Scenario.Spec.name = "bisect-static";
    churn = Scenario.Spec.Static;
    drive = Scenario.Spec.no_drive;
    steps;
  }

let bisect_manual_run ~spec ~seed ~steps ~cadence ~perturb =
  let recorder = Audit.create ~cadence () in
  let d =
    Scenario.Msg_driver.create_cell ~seed ~cell:0 ~labels:[ ("cell", "0") ]
      spec
  in
  Audit.with_recorder recorder (fun () ->
      for time = 1 to steps do
        Scenario.Msg_driver.step d ~time;
        match perturb with
        | Some (n, at) when time = at ->
          let rng = Scenario.Msg_driver.rng d in
          for _ = 1 to n do
            ignore (Rng.int rng 1_000_000)
          done
        | _ -> ()
      done);
  recorder

let bisect_cells_run ~engine ~spec ~seed ~cells ~cadence ~jobs =
  let recorder = Audit.create ~cadence () in
  ignore
    (Audit.with_recorder recorder (fun () ->
         Scenario.cells ?jobs ~engine ~seed ~cells spec));
  recorder

let bisect_cmd =
  let engine_t = engine_pos_t ~what:"bisect" in
  let file_a_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "file-a" ] ~docv:"FILE"
          ~doc:"Digest stream of run A (written by $(b,audit --out)).")
  in
  let file_b_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "file-b" ] ~docv:"FILE" ~doc:"Digest stream of run B.")
  in
  let jobs_a_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs-a" ] ~docv:"N" ~doc:"Worker domains for run A (default $(b,-j)).")
  in
  let jobs_b_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs-b" ] ~docv:"N" ~doc:"Worker domains for run B (default $(b,-j)).")
  in
  let seed_b_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed-b" ] ~docv:"SEED"
          ~doc:"Seed for run B (default $(b,--seed): identical seeding).")
  in
  let perturb_rng_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "perturb-rng" ] ~docv:"N"
          ~doc:
            "Demo mode: steal N draws from run B's RNG stream mid-run \
             (with $(b,--perturb-at)); runs one message-level cell of a \
             static scenario so only the $(b,rng) subsystem can diverge.")
  in
  let perturb_at_t =
    Arg.(
      value & opt int 10
      & info [ "perturb-at" ] ~docv:"STEP"
          ~doc:"Inject the perturbation between STEP and STEP+1 (default 10).")
  in
  let cells_t =
    cells_t ~doc:"Independent simulation cells per run (double-run modes)."
  in
  let run engine scenario file_a file_b jobs_a jobs_b seed_b perturb_rng
      perturb_at cells steps cadence seed jobs =
    setup_jobs jobs;
    let report a_frames b_frames =
      match Audit.Bisect.first_divergence a_frames b_frames with
      | None ->
        Printf.printf "streams agree: %d frames, no divergence\n"
          (List.length a_frames);
        `Ok ()
      | Some d ->
        print_endline (Audit.Bisect.describe d);
        `Ok ()
    in
    match (file_a, file_b) with
    | Some a, Some b -> (
      let read path =
        match In_channel.with_open_bin path In_channel.input_all with
        | data -> Audit.Export.of_jsonl data
        | exception Sys_error msg -> Error msg
      in
      match (read a, read b) with
      | Error msg, _ -> `Error (false, Printf.sprintf "%s: %s" a msg)
      | _, Error msg -> `Error (false, Printf.sprintf "%s: %s" b msg)
      | Ok fa, Ok fb -> report fa fb)
    | Some _, None | None, Some _ ->
      `Error (true, "--file-a and --file-b must be given together")
    | None, None -> (
      if cells < 1 then `Error (true, "need at least one cell")
      else if (match steps with Some s -> s < 1 | None -> false) then
        `Error (true, "need at least one step")
      else if cadence < 1 then `Error (true, "cadence must be >= 1")
      else if perturb_at < 1 then `Error (true, "perturb-at must be >= 1")
      else
        match perturb_rng with
        | Some n ->
          if n < 1 then `Error (true, "perturb-rng must be >= 1")
          else begin
            let steps = Option.value steps ~default:40 in
            let spec = bisect_static_spec ~steps in
            let a =
              bisect_manual_run ~spec ~seed ~steps ~cadence ~perturb:None
            in
            let b =
              bisect_manual_run ~spec
                ~seed:(Option.value seed_b ~default:seed)
                ~steps ~cadence
                ~perturb:(Some (n, perturb_at))
            in
            Printf.printf
              "mis-seeding demo: 1 msg cell x %d static steps, %d draws \
               stolen after step %d\n"
              steps n perturb_at;
            report (Audit.Recorder.frames a) (Audit.Recorder.frames b)
          end
        | None -> (
          match resolve_spec ~engine ~scenario ~steps with
          | Error msg -> `Error (false, msg)
          | Ok spec ->
            let a =
              bisect_cells_run ~engine ~spec ~seed ~cells ~cadence
                ~jobs:jobs_a
            in
            let b =
              bisect_cells_run ~engine ~spec
                ~seed:(Option.value seed_b ~default:seed)
                ~cells ~cadence ~jobs:jobs_b
            in
            Printf.printf
              "scenario %s on %s: 2 runs x %d cells x %d steps (cadence %d)\n"
              spec.Scenario.Spec.name (Scenario.engine_name engine) cells
              spec.Scenario.Spec.steps cadence;
            report (Audit.Recorder.frames a) (Audit.Recorder.frames b)))
  in
  let term =
    Term.(
      ret
        (const run $ engine_t $ scenario_name_t ~default:"steady" $ file_a_t
       $ file_b_t $ jobs_a_t $ jobs_b_t $ seed_b_t $ perturb_rng_t
       $ perturb_at_t $ cells_t $ opt_steps_t $ audit_cadence_t $ seed_t
       $ jobs_t))
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:
         "Run two configurations of the same scenario (or read two \
          recorded digest streams) and report the first step and \
          subsystem whose state digests diverge.")
    term

(* ---------------- scenario ---------------- *)

let scenario_cmd =
  let name_t =
    Arg.(
      value & pos 0 string "steady"
      & info [] ~docv:"NAME"
          ~doc:
            "Scenario name (default $(b,steady)); strategy scenarios \
             accept parameters, e.g. $(b,flash-crowd:size=400,at=100).")
  in
  let engine_t =
    Arg.(
      value & opt engine_conv `Mixed
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Driver to run the cells on: $(b,state), $(b,msg), $(b,async) \
             or $(b,mixed) (state/msg alternating; default).")
  in
  let cells_t =
    cells_t
      ~doc:
        "Independent simulation cells, fanned out on the Exec pool; the \
         report is byte-identical for any $(b,-j)."
  in
  let list_t =
    Arg.(value & flag & info [ "list" ] ~doc:"List the scenario registry and exit.")
  in
  let run name engine cells steps list seed jobs =
    setup_jobs jobs;
    if list then begin
      print_catalogue Scenario.catalogue;
      `Ok ()
    end
    else if cells < 1 then `Error (true, "need at least one cell")
    else if (match steps with Some s -> s < 1 | None -> false) then
      `Error (true, "need at least one step")
    else
      match resolve_spec ~engine ~scenario:name ~steps with
      | Error msg -> `Error (false, msg)
      | Ok spec ->
        let results = Scenario.cells ~engine ~seed ~cells spec in
        Printf.printf "scenario %s on %s: %d cells x %d steps (seed %d)\n\n"
          spec.Scenario.Spec.name (Scenario.engine_name engine) cells
          spec.Scenario.Spec.steps seed;
        List.iter
          (fun (label, s) ->
            Printf.printf "  %-16s %s\n" label (Scenario.Stats.summary s))
          results;
        Printf.printf "\ntotal messages: %d\n" (total_messages results);
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ name_t $ engine_t $ cells_t $ opt_steps_t $ list_t
       $ seed_t $ jobs_t))
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run a named scenario from the registry on the state-level and/or \
          message-level driver and report per-cell statistics.")
    term

(* ---------------- init ---------------- *)

let init_cmd =
  let run seed n_max n0 k tau =
    let params = make_params ~n_max ~k ~tau ~exact_walk:false ~no_shuffle:false in
    let engine = make_engine ~seed ~params ~n0 ~tau in
    let r = Engine.init_report engine in
    Printf.printf "initialisation report (n0 = %d, N = %d):\n" r.Engine.n0 n_max;
    Printf.printf "  bootstrap edges     : %d\n" r.Engine.bootstrap_edges;
    Printf.printf "  discovery messages  : %d (rounds: %d)\n"
      r.Engine.discovery_messages r.Engine.discovery_rounds;
    Printf.printf "  agreement messages  : %d (rounds: %d, King-Saia model)\n"
      r.Engine.agreement_messages r.Engine.agreement_rounds;
    Printf.printf "  partition messages  : %d\n" r.Engine.partition_messages;
    Printf.printf "  clusters formed     : %d (target size %d)\n"
      r.Engine.initial_clusters
      (Params.target_cluster_size params);
    Printf.printf "  min honest fraction : %.3f\n" (Engine.min_honest_fraction engine)
  in
  let term = Term.(const run $ seed_t $ n_max_t $ n0_t $ k_t $ tau_t) in
  Cmd.v
    (Cmd.info "init" ~doc:"Run only the initialisation phase and report its cost.")
    term

let () =
  let doc = "NOW/OVER — Byzantine-tolerant clustering for highly dynamic networks" in
  let info = Cmd.info "now_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiments_cmd; churn_cmd; resume_cmd; scenario_cmd; byz_cmd;
            trace_cmd; monitor_cmd; audit_cmd; bisect_cmd; init_cmd;
          ]))
