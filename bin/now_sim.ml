(* now_sim — command-line driver for the NOW/OVER reproduction.

   Sub-commands:
     experiments   run the paper-reproduction experiment suite (E1..E15, F1-F2,
                   A1-A2), print each family's primitive breakdown and
                   optionally write the bench records (--monitor-json, --history)
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
   byte-identical for any -j and across reruns.

   Every value is checked while the command line is parsed, and every
   file goes through [write] or [read], so bad input of either kind is a
   "now_sim: ..." message and exit 124, never an uncaught exception. *)

open Cmdliner

module Engine = Now_core.Engine
module Params = Now_core.Params
module Node = Now_core.Node
module Rng = Prng.Rng

let ( let* ) = Result.bind

(* ---------------- files ---------------- *)

(* A path the system refuses becomes [Error "PATH: reason"]. *)
let guard path f =
  match f () with
  | v -> Ok v
  | exception Sys_error reason ->
    let prefix = path ^ ": " in
    Error (if String.starts_with ~prefix reason then reason else prefix ^ reason)

(* Closed inside the callback, so the final flush's error (a full disk,
   say) reaches [guard]; [with_open_gen]'s own close would swallow it. *)
let write ?(append = false) path data =
  guard path (fun () ->
      Out_channel.with_open_gen
        [ Open_wronly; Open_creat; (if append then Open_append else Open_trunc) ]
        0o666 path
        (fun oc ->
          Out_channel.output_string oc data;
          Out_channel.close oc))

let read path =
  guard path (fun () -> In_channel.with_open_bin path In_channel.input_all)

(* [write], then echo the path as every export does. *)
let export path data =
  let* () = write path data in
  Printf.printf "wrote %s\n" path;
  Ok ()

let ensure_dir dir =
  guard dir (fun () -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)

(* ---------------- value rules ---------------- *)

let positive =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n >= 1 -> Ok n
    | Ok n -> Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* NaN fails both comparisons, so it is refused too. *)
let fraction =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok f when f >= 0.0 && f <= 1.0 -> Ok f
    | Ok _ -> Error (`Msg (Printf.sprintf "expected a fraction in [0, 1], got %s" s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

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
    value & opt positive 1000
    & info [ "n0" ] ~docv:"N0" ~doc:"Initial network size (>= sqrt N).")

let k_t =
  Arg.(
    value & opt positive 8
    & info [ "k" ] ~docv:"K" ~doc:"Cluster-size security parameter (|C| ~ k log2 N).")

let tau_t =
  Arg.(
    value & opt fraction 0.15
    & info [ "tau" ] ~docv:"TAU" ~doc:"Global fraction of Byzantine nodes (< 1/3).")

let byz_tau_t ~default =
  Arg.(
    value & opt fraction default
    & info [ "byz-tau" ] ~docv:"TAU"
        ~doc:
          "Corrupted fraction of every message-level cluster (rounded to \
           members); above 1/3 the honest-fraction bound breaches.")

let behavior_t =
  let behavior =
    let parse name =
      match Adversary.Behavior.of_name name with
      | Ok _ -> Ok name
      | Error msg -> Error (`Msg msg)
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  Arg.(
    value & opt behavior "equivocate"
    & info [ "behavior" ] ~docv:"BEHAVIOR"
        ~doc:
          "Byzantine behaviour of the corrupted members ($(b,byz --list) \
           shows the set).")

let list_t what =
  Arg.(
    value & flag & info [ "list" ] ~doc:(Printf.sprintf "List the %s and exit." what))

let cadence_t ~doc =
  Arg.(value & opt positive 1 & info [ "cadence" ] ~docv:"K" ~doc)

let cells_t ~doc =
  Arg.(value & opt positive 4 & info [ "cells" ] ~docv:"CELLS" ~doc)

let steps_t ~doc =
  Arg.(value & opt (some positive) None & info [ "steps" ] ~docv:"STEPS" ~doc)

let out_t ~default ~doc =
  Arg.(value & opt string default & info [ "out" ] ~docv:"FILE" ~doc)

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
  Arg.(
    value
    & opt (some positive) None
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

(* [Params.make] is the one judge of which n_max / k / tau combinations
   are valid; its refusal is reported like any other bad value. *)
let params_t ~exact_walk ~no_shuffle =
  let make n_max k tau exact_walk no_shuffle =
    match
      Params.make ~n_max ~k ~tau
        ~walk_mode:(if exact_walk then Params.Exact_walk else Params.Direct_sample)
        ~shuffle_on_churn:(not no_shuffle) ()
    with
    | params -> Ok params
    | exception Invalid_argument msg -> Error msg
  in
  Term.(term_result' (const make $ n_max_t $ k_t $ tau_t $ exact_walk $ no_shuffle))

let make_engine ~seed ~params ~n0 =
  let rng = Rng.of_int (seed + 1) in
  let initial = Harness.Common.initial_population rng ~n:n0 ~tau:params.Params.tau in
  Engine.create ~seed:(Int64.of_int seed) params ~initial

let print_catalogue catalogue =
  List.iter (fun (name, doc) -> Printf.printf "%-14s %s\n" name doc) catalogue

(* (invariant, breaches) for each run of consecutive breaches of one
   invariant, in store order. *)
let violation_tally store =
  List.fold_left
    (fun acc (v : Monitor.Store.violation) ->
      match acc with
      | (inv, n) :: rest when inv = v.Monitor.Store.invariant ->
        (inv, n + 1) :: rest
      | _ -> (v.Monitor.Store.invariant, 1) :: acc)
    []
    (Monitor.Store.violations store)
  |> List.rev

(* ---------------- experiments ---------------- *)

let quote = Metrics.Json.quote

let population rng n tau =
  List.init n (fun _ -> if Rng.bernoulli rng tau then Node.Byzantine else Node.Honest)

let small_engine ?(walk_mode = Params.Direct_sample) () =
  let params =
    Params.make ~n_max:(1 lsl 10) ~k:3 ~tau:0.15 ~walk_mode
      ~shuffle_on_churn:true ()
  in
  let rng = Rng.create 42L in
  Engine.create ~seed:42L params ~initial:(population rng 300 0.15)

(* The dominant operation of each experiment family, run once on a small
   seeded fixture under the trace collector; the rows show which
   primitives the operation spends its message budget on.  Sequential and
   fully seeded, so the table is byte-identical across runs and -j values
   (the CI determinism gate diffs it along with the experiment tables). *)
let breakdown_ops =
  [
    ( "E1/E2",
      "exchange(C)",
      fun () ->
        let engine = small_engine () in
        let tbl = Engine.table engine in
        let cid = Now_core.Cluster_table.uniform_cluster tbl (Rng.of_int 1) in
        ignore (Engine.exchange_cluster engine cid) );
    ( "E5/A2",
      "randCl (exact)",
      fun () ->
        let engine = small_engine ~walk_mode:Params.Exact_walk () in
        ignore (Engine.rand_cl engine ()) );
    ( "E7/F1",
      "join+leave",
      fun () ->
        let engine = small_engine () in
        ignore (Engine.join engine Node.Honest);
        ignore (Engine.leave engine (Engine.random_node engine)) );
    ( "F2",
      "msg exchange(x)",
      fun () ->
        let cfg =
          Cluster.Config.build_uniform ~rng:(Rng.of_int 12) ~n_clusters:4
            ~cluster_size:9 ~byz_per_cluster:2 ~overlay_degree:3 ()
        in
        match Cluster.Exchange.exchange_node cfg ~node:3 with
        | Ok _ | Error _ -> () );
    ( "E12",
      "msg join+leave",
      fun () ->
        let cfg =
          Cluster.Config.build_uniform ~rng:(Rng.of_int 47) ~n_clusters:5
            ~cluster_size:10 ~byz_per_cluster:1 ~overlay_degree:3 ()
        in
        (match Cluster.Ops.join cfg ~node:500_001 ~contact:0 () with
        | Ok _ | Error _ -> ());
        match Cluster.Ops.leave cfg ~node:500_001 () with
        | Ok _ | Error _ -> () );
    ( "E13",
      "valchan vs byz",
      fun () ->
        let cfg =
          Cluster.Config.build_uniform ~rng:(Rng.of_int 48)
            ~behavior:(fun node ->
              Agreement.Byz_behavior.Equivocate (node + 1, node + 2))
            ~n_clusters:2 ~cluster_size:15 ~byz_per_cluster:4 ~overlay_degree:1 ()
        in
        ignore
          (Cluster.Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload:7 ()) );
    ( "E14",
      "async valchan",
      fun () ->
        let cfg =
          Cluster.Config.build_uniform ~rng:(Rng.of_int 49) ~n_clusters:2
            ~cluster_size:15 ~byz_per_cluster:0 ~overlay_degree:1 ()
        in
        let s =
          Asim.Session.create ~rng:(Rng.of_int 50)
            ~delay:(Asim.Delay.Uniform { mean = 1.0 }) cfg
        in
        ignore (Asim.Session.transmit s ~src_cluster:0 ~dst_cluster:1 ~payload:7 ()) );
    ( "E15",
      "exchange epoch",
      fun () ->
        let engine = small_engine () in
        ignore (Engine.exchange_epoch engine) );
  ]

let run_breakdown () =
  let table =
    Metrics.Table.create
      ~title:"primitive breakdown per experiment (top 3 by self messages)"
      ~columns:
        [ "experiment"; "operation"; "primitive"; "spans"; "self msgs"; "self rounds" ]
  in
  List.iter
    (fun (experiment, op, f) ->
      let (), dump = Trace.profiled f in
      let rows = Trace.Report.table_rows (Trace.Report.of_dump dump) in
      List.iteri
        (fun i (name, spans, self_msgs, self_rounds) ->
          if i < 3 then
            Metrics.Table.add_row table
              [
                Metrics.Table.S experiment; Metrics.Table.S op;
                Metrics.Table.S name; Metrics.Table.I spans;
                Metrics.Table.I self_msgs; Metrics.Table.I self_rounds;
              ])
        rows)
    breakdown_ops;
  Metrics.Table.print table

(* BENCH_monitor.json: per-experiment wall time + allocation + the run's
   invariant summary, consumed by scripts/bench_diff.ml.  The wall times
   and caller-domain allocation deltas are the only nondeterministic
   fields — the comparator treats wall times leniently (a drift band)
   and allocation informationally, while the invariant aggregates are
   seeded and must match the baseline exactly. *)
let monitor_summary ~mode ~results ~timings store =
  let buf = Buffer.create 4096 in
  let fr = Monitor.Store.float_repr in
  Buffer.add_string buf "{\n  \"format\": 1,\n";
  Buffer.add_string buf (Printf.sprintf "  \"mode\": %s,\n" (quote mode));
  Buffer.add_string buf "  \"experiments\": [\n";
  let sorted =
    List.sort
      (fun a b -> compare a.Harness.Common.id b.Harness.Common.id)
      results
  in
  let rows_of r =
    let csv = String.trim (Metrics.Table.to_csv r.Harness.Common.table) in
    max 0 (List.length (String.split_on_char '\n' csv) - 1)
  in
  let last = List.length sorted - 1 in
  List.iteri
    (fun i r ->
      let id = r.Harness.Common.id in
      let wall, alloc, _ =
        try Hashtbl.find timings id with Not_found -> (0.0, 0.0, 0.0)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"id\": %s, \"ok\": %b, \"rows\": %d, \"wall_seconds\": \
            %.3f, \"alloc_bytes\": %.0f}%s\n"
           (quote id) r.Harness.Common.ok (rows_of r) wall alloc
           (if i = last then "" else ",")))
    sorted;
  Buffer.add_string buf "  ],\n";
  let samples = Monitor.Store.samples store in
  let agg series op init =
    List.fold_left
      (fun acc (s : Monitor.Store.sample) ->
        if s.Monitor.Store.series = series then op acc s.Monitor.Store.value
        else acc)
      init samples
  in
  let field name v =
    Printf.sprintf "    %s: %s,\n" (quote name)
      (if Float.is_finite v then fr v else "null")
  in
  Buffer.add_string buf "  \"invariants\": {\n";
  Buffer.add_string buf
    (Printf.sprintf "    \"samples\": %d,\n" (Monitor.Store.n_samples store));
  Buffer.add_string buf
    (Printf.sprintf "    \"violations\": %d,\n"
       (Monitor.Store.n_violations store));
  Buffer.add_string buf
    (field "honest_frac_min" (agg "cluster.honest_frac.min" min infinity));
  Buffer.add_string buf
    (field "cluster_size_max" (agg "cluster.size.max" max neg_infinity));
  Buffer.add_string buf
    (field "overlay_degree_max" (agg "overlay.degree.max" max neg_infinity));
  Buffer.add_string buf
    (field "expansion_min" (agg "overlay.expansion.lower" min infinity));
  Buffer.add_string buf "    \"violations_by_invariant\": {";
  List.iteri
    (fun i (inv, n) ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s: %d" (if i = 0 then "" else ", ") (quote inv) n))
    (violation_tally store);
  Buffer.add_string buf "}\n  }\n}\n";
  Buffer.contents buf

(* BENCH_history.jsonl: one appended line per --history run — the perf
   trajectory scripts/bench_report.ml renders.  Opt-in (a plain run
   never touches the file), and stamped with real time: the history file
   is an operator log, not a gated artifact.  peak_live_words (format 1,
   optional field) carries the Gc-alarm footprint sample; like wall and
   alloc it is rendered informationally and never compared. *)
let history_entry ~mode ~results ~timings =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"format\": 1, \"mode\": %s, \"stamp\": %.0f, \
                     \"experiments\": ["
       (quote mode) (Unix.time ()));
  let sorted =
    List.sort
      (fun a b -> compare a.Harness.Common.id b.Harness.Common.id)
      results
  in
  List.iteri
    (fun i r ->
      let id = r.Harness.Common.id in
      let wall, alloc, live =
        try Hashtbl.find timings id with Not_found -> (0.0, 0.0, 0.0)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%s{\"id\": %s, \"ok\": %b, \"wall_seconds\": %.3f, \
            \"alloc_bytes\": %.0f, \"peak_live_words\": %.0f}"
           (if i = 0 then "" else ", ")
           (quote id) r.Harness.Common.ok wall alloc live))
    sorted;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

let experiment_id =
  let parse id =
    match Harness.Registry.find id with
    | Some _ -> Ok id
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown experiment id %s; available: %s" id
             (String.concat ", " (List.map fst Harness.Registry.all))))
  in
  Arg.conv (parse, Format.pp_print_string)

let experiments_cmd =
  let ids_t =
    Arg.(
      value & pos_all experiment_id []
      & info [] ~docv:"ID"
          ~doc:"Experiment ids (E1..E15, F1, F2, A1, A2); default all.")
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
  let monitor_json_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "monitor-json" ] ~docv:"FILE"
          ~doc:
            "Run under the invariant monitor and write each experiment's \
             wall time and allocation plus the run's invariant summary to \
             FILE ($(b,scripts/bench_diff.exe) compares two such files; the \
             committed baseline is BENCH_monitor.json).")
  in
  let history_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "history" ] ~docv:"FILE"
          ~doc:
            "Append one line of per-experiment wall time, allocation and \
             peak live words to FILE ($(b,scripts/bench_report.exe) renders \
             it; the committed log is BENCH_history.jsonl).")
  in
  let cadence_t =
    cadence_t
      ~doc:
        "Monitor sampling period in sim-time units (with $(b,--monitor) or \
         $(b,--monitor-json))."
  in
  let run ids full csv list monitor_dir monitor_json history cadence jobs =
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
      Ok ()
    end
    else begin
      let mode = if full then Harness.Common.Full else Harness.Common.Quick in
      let timings = Hashtbl.create 32 in
      let timings_mu = Mutex.create () in
      (* Wall time plus the wrapping domain's allocation delta.  Experiments
         fan their cells out over the Exec pool, so the delta under-counts
         worker-domain allocation — it tracks the caller-side share, which is
         stable enough to trend (and flagged informational in bench_diff).
         Peak live words is sampled at major-collection boundaries (a Gc
         alarm) plus one post-run full major — a process-wide footprint
         measure, so concurrent experiments see each other's heap; like wall
         and alloc it is informational only and never enters a gated byte. *)
      let wrap id f =
        let a0 = Gc.allocated_bytes () in
        let peak = ref 0 in
        let note () =
          let lw = (Gc.quick_stat ()).Gc.live_words in
          if lw > !peak then peak := lw
        in
        let alarm = Gc.create_alarm note in
        let t0 = Unix.gettimeofday () in
        let r = f () in
        let dt = Unix.gettimeofday () -. t0 in
        Gc.delete_alarm alarm;
        Gc.full_major ();
        note ();
        let da = Gc.allocated_bytes () -. a0 in
        Mutex.lock timings_mu;
        Hashtbl.replace timings id (dt, da, float_of_int !peak);
        Mutex.unlock timings_mu;
        r
      in
      (* Only the bench records read the timings, so a plain run skips the
         per-experiment Gc alarm and full major. *)
      let wrap = if monitor_json = None && history = None then None else Some wrap in
      let store =
        if monitor_dir = None && monitor_json = None then None
        else Some (Monitor.create ~cadence ())
      in
      let results =
        match store with
        | None -> Harness.Registry.run_ids ?wrap ~mode ids
        | Some m ->
          Monitor.with_monitor m (fun () -> Harness.Registry.run_ids ?wrap ~mode ids)
      in
      let* () =
        match (store, monitor_dir) with
        | Some m, Some dir ->
          let* () = ensure_dir dir in
          let* () =
            export (Filename.concat dir "monitor.jsonl") (Monitor.Export.jsonl_string m)
          in
          let* () =
            export (Filename.concat dir "monitor.csv") (Monitor.Export.csv_string m)
          in
          export
            (Filename.concat dir "monitor.html")
            (Monitor.Dashboard.render
               ~title:"nowlib experiments — invariant monitor" m)
        | _ -> Ok ()
      in
      let* () =
        match csv with
        | None -> Ok ()
        | Some dir ->
          let* () = ensure_dir dir in
          List.fold_left
            (fun acc r ->
              let* () = acc in
              export
                (Filename.concat dir (r.Harness.Common.id ^ ".csv"))
                (Metrics.Table.to_csv r.Harness.Common.table))
            (Ok ()) results
      in
      let ok = List.length (List.filter (fun r -> r.Harness.Common.ok) results) in
      Printf.printf "==> %d/%d experiments reproduce the paper's shape.\n\n" ok
        (List.length results);
      let mode_name = if full then "full" else "quick" in
      let* () =
        match (store, monitor_json) with
        | Some m, Some path ->
          export path (monitor_summary ~mode:mode_name ~results ~timings m)
        | _ -> Ok ()
      in
      let* () =
        match history with
        | None -> Ok ()
        | Some path ->
          let* () =
            write ~append:true path (history_entry ~mode:mode_name ~results ~timings)
          in
          Printf.printf "appended history entry to %s\n" path;
          Ok ()
      in
      run_breakdown ();
      if ok < List.length results then exit 1;
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Run the paper-reproduction experiment suite (DESIGN.md section 4), \
          then print each experiment family's primitive breakdown."
       ~exits:
         (Cmd.Exit.info 1
            ~doc:"when an experiment does not reproduce the paper's shape."
         :: Cmd.Exit.defaults))
    Term.(
      term_result'
        (const run $ ids_t $ full_t $ csv_t $ list_t "experiment ids" $ monitor_t
       $ monitor_json_t $ history_t $ cadence_t $ jobs_t))

(* ---------------- churn ---------------- *)

let strategy_t =
  Arg.(
    value & opt string "random"
    & info [ "strategy" ] ~docv:"STRATEGY"
        ~doc:"Adversary strategy ($(b,churn --list) shows the set).")

let churn_steps_t =
  Term.(
    const (Option.value ~default:2000)
    $ steps_t ~doc:"Time steps to run (default 2000).")

let snapshot_out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-snapshot" ] ~docv:"FILE"
        ~doc:"Write the final engine state to FILE (resume with $(b,resume)).")

let drive_and_report ~engine ~seed ~strategy ~steps ~snapshot_out =
  let tau = (Engine.params engine).Params.tau in
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
  | None -> Ok ()
  | Some path ->
    let* () = write path (Engine.save engine) in
    Printf.printf "  snapshot saved        : %s\n" path;
    Ok ()

let churn_cmd =
  let run seed params n0 strategy steps verbose snapshot_out list =
    if list then begin
      print_catalogue Adversary.strategy_catalogue;
      Ok ()
    end
    else
      let* strategy = Adversary.strategy_of_name ~steps strategy in
      setup_logs verbose;
      Printf.printf "parameters: %s\n" (Format.asprintf "%a" Params.pp params);
      let engine = make_engine ~seed ~params ~n0 in
      Printf.printf "initialised: n=%d clusters=%d min honest=%.3f\n%!"
        (Engine.n_nodes engine) (Engine.n_clusters engine)
        (Engine.min_honest_fraction engine);
      drive_and_report ~engine ~seed ~strategy ~steps ~snapshot_out
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Run an adversarial churn simulation and report safety metrics.")
    Term.(
      term_result'
        (const run $ seed_t
        $ params_t ~exact_walk:exact_walk_t ~no_shuffle:no_shuffle_t
        $ n0_t $ strategy_t $ churn_steps_t $ verbose_t $ snapshot_out_t
        $ list_t "adversary strategies"))

(* ---------------- resume ---------------- *)

let resume_cmd =
  let snapshot_in_t =
    Arg.(
      required
      & opt (some file) None
      & info [ "snapshot" ] ~docv:"FILE" ~doc:"Snapshot written by $(b,churn --save-snapshot).")
  in
  let run seed snapshot_path strategy steps verbose snapshot_out =
    let* strategy = Adversary.strategy_of_name ~steps strategy in
    setup_logs verbose;
    let* data = read snapshot_path in
    (* [Engine.load] still raises on a damaged file (ROADMAP item 3): every
       exception a truncated or garbled snapshot was seen to raise is bad
       input, not an internal error. *)
    let* engine =
      let bad reason = Error (Printf.sprintf "%s: %s" snapshot_path reason) in
      match Engine.load data with
      | engine -> Ok engine
      | exception Failure reason -> bad reason
      | exception Invalid_argument reason -> bad reason
      | exception End_of_file -> bad "truncated snapshot (End_of_file)"
      | exception Not_found -> bad "damaged snapshot (Not_found)"
      | exception Scanf.Scan_failure reason -> bad reason
    in
    Printf.printf "resumed: n=%d clusters=%d at time step %d\n%!"
      (Engine.n_nodes engine) (Engine.n_clusters engine) (Engine.time_step engine);
    drive_and_report ~engine ~seed ~strategy ~steps ~snapshot_out
  in
  Cmd.v
    (Cmd.info "resume" ~doc:"Resume a churn simulation from a saved snapshot.")
    Term.(
      term_result'
        (const run $ seed_t $ snapshot_in_t $ strategy_t $ churn_steps_t $ verbose_t
       $ snapshot_out_t))

(* ---------------- byz ---------------- *)

(* Fault-injection scenario: a fixed message-level population where a
   [tau] fraction of every cluster runs the requested behaviour, driven
   through all four primitives under a trace collector; every injected
   deviation surfaces as a byz.* point, counted and reported. *)
let byz_cmd =
  let trials_t =
    Arg.(
      value & opt positive 10
      & info [ "trials" ] ~docv:"N" ~doc:"Transfers/draws/walks per primitive.")
  in
  let run behavior tau list trials seed =
    if list then begin
      print_catalogue Adversary.Behavior.catalogue;
      Ok ()
    end
    else begin
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
            if Monitor.Blame.deviation_point name then
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
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "byz"
       ~doc:
         "Inject a Byzantine behaviour into the message engine and report \
          every deviation.")
    Term.(
      term_result'
        (const run $ behavior_t $ byz_tau_t ~default:0.25 $ list_t "behaviours"
       $ trials_t $ seed_t))

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

let cell_steps_t =
  steps_t ~doc:"Operations per cell (default: the scenario's own step count)."

(* Resolve the CLI's scenario choices into a runnable spec, or a
   CLI-friendly error. *)
let resolve_spec engine scenario steps =
  let* spec = Scenario.of_name ?steps scenario in
  let spec =
    match steps with
    | None -> spec
    | Some steps -> { spec with Scenario.Spec.steps }
  in
  let* () = Scenario.check_supported engine spec in
  Ok (engine, spec)

let spec_t engine_t scenario_t =
  Term.(term_result' (const resolve_spec $ engine_t $ scenario_t $ cell_steps_t))

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
  let chrome_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Also write a Chrome trace_event JSON to FILE (load in Perfetto \
             or chrome://tracing).")
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
  let run (engine, spec) out chrome cells net_detail profile_alloc exec_stats seed
      jobs =
    setup_jobs jobs;
    let steps = spec.Scenario.Spec.steps in
    Trace.start ~net_detail ~profile_alloc ();
    let results = Scenario.cells ~engine ~seed ~cells spec in
    let dump = Trace.stop () in
    let* () = write out (Trace.to_jsonl dump) in
    let* () =
      match chrome with None -> Ok () | Some path -> write path (Trace.to_chrome dump)
    in
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
    Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace a deterministic scenario and print the per-primitive \
          profile report.")
    Term.(
      term_result'
        (const run
        $ spec_t (engine_pos_t ~what:"trace") (scenario_name_t ~default:"steady")
        $ out_t ~default:"trace.jsonl" ~doc:"Write the JSONL trace to FILE."
        $ chrome_t
        $ cells_t
            ~doc:
              "Independent simulation cells, fanned out on the Exec pool; the \
               merged trace is byte-identical for any $(b,-j)."
        $ net_detail_t $ profile_alloc_t $ exec_stats_t $ seed_t $ jobs_t))

(* ---------------- monitor ---------------- *)

let monitor_cmd =
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
  let run (engine, spec) out csv html cells cadence behavior byz_tau exec_stats seed
      jobs =
    setup_jobs jobs;
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
    let* () = export out (Monitor.Export.jsonl_string store) in
    let* () =
      match csv with
      | None -> Ok ()
      | Some p -> export p (Monitor.Export.csv_string store)
    in
    let* () =
      match html with
      | None -> Ok ()
      | Some p -> export p (Monitor.Dashboard.render store)
    in
    Printf.printf
      "scenario %s on %s: %d cells x %d steps (cadence %d), %d simulated \
       messages\n"
      spec.Scenario.Spec.name (Scenario.engine_name engine) cells steps
      cadence (total_messages results);
    Printf.printf "samples: %d   violations: %d\n"
      (Monitor.Store.n_samples store)
      (Monitor.Store.n_violations store);
    let tally = violation_tally store in
    if tally <> [] then begin
      print_endline "breached invariants:";
      List.iter (fun (inv, n) -> Printf.printf "  %-24s %6d\n" inv n) tally
    end;
    if exec_stats then print_exec_stats ();
    Ok ()
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:
         "Time-series sample the paper's invariants over a deterministic \
          scenario and export JSONL / CSV / an SVG dashboard.")
    Term.(
      term_result'
        (const run
        $ spec_t (engine_pos_t ~what:"monitor") (scenario_name_t ~default:"primitives")
        $ out_t ~default:"monitor.jsonl" ~doc:"Write the JSONL series to FILE."
        $ csv_out_t $ html_t
        $ cells_t
            ~doc:
              "Independent simulation cells, fanned out on the Exec pool; every \
               output is byte-identical for any $(b,-j)."
        $ cadence_t ~doc:"Sample the gauges every K-th sim-time step."
        $ behavior_t $ byz_tau_t ~default:0.15 $ exec_stats_t $ seed_t $ jobs_t))

(* ---------------- audit ---------------- *)

let audit_cadence_t = cadence_t ~doc:"Record a digest frame every K-th sim-time step."

let audit_cmd =
  let run (engine, spec) out cells cadence seed jobs =
    setup_jobs jobs;
    let recorder = Audit.create ~cadence () in
    let results =
      Audit.with_recorder recorder (fun () ->
          Scenario.cells ~engine ~seed ~cells spec)
    in
    let* () = export out (Audit.Export.jsonl_string recorder) in
    Printf.printf
      "scenario %s on %s: %d cells x %d steps (cadence %d), %d simulated \
       messages\n\
       digest frames: %d (%d subsystems per recorded step)\n"
      spec.Scenario.Spec.name (Scenario.engine_name engine) cells
      spec.Scenario.Spec.steps cadence (total_messages results)
      (Audit.Recorder.n_frames recorder)
      (List.length Audit.Digest_of.subsystems);
    Ok ()
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Record the flight recorder's canonical per-subsystem digest \
          stream over a deterministic scenario (compare runs with \
          $(b,bisect)).")
    Term.(
      term_result'
        (const run
        $ spec_t (engine_pos_t ~what:"audit") (scenario_name_t ~default:"steady")
        $ out_t ~default:"digests.jsonl" ~doc:"Write the digest stream to FILE."
        $ cells_t
            ~doc:
              "Independent simulation cells, fanned out on the Exec pool; the \
               stream is byte-identical for any $(b,-j)."
        $ audit_cadence_t $ seed_t $ jobs_t))

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
      & opt (some positive) None
      & info [ "jobs-a" ] ~docv:"N" ~doc:"Worker domains for run A (default $(b,-j)).")
  in
  let jobs_b_t =
    Arg.(
      value
      & opt (some positive) None
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
      & opt (some positive) None
      & info [ "perturb-rng" ] ~docv:"N"
          ~doc:
            "Demo mode: steal N draws from run B's RNG stream mid-run \
             (with $(b,--perturb-at)); runs one message-level cell of a \
             static scenario so only the $(b,rng) subsystem can diverge.")
  in
  let perturb_at_t =
    Arg.(
      value & opt positive 10
      & info [ "perturb-at" ] ~docv:"STEP"
          ~doc:
            "Inject the perturbation between STEP and STEP+1 (default 10; \
             below $(b,--steps), whose default here is 40).")
  in
  (* Which of the three comparisons to run, resolved while the command
     line is parsed. *)
  let mode_t =
    let resolve engine scenario steps file_a file_b perturb_rng perturb_at =
      match (file_a, file_b, perturb_rng) with
      | Some a, Some b, _ -> Ok (`Files (a, b))
      | Some _, None, _ | None, Some _, _ ->
        Error "--file-a and --file-b must be given together"
      | None, None, Some draws ->
        let steps = Option.value steps ~default:40 in
        if perturb_at >= steps then
          Error
            (Printf.sprintf
               "--perturb-at %d must be below --steps %d: a perturbation \
                after the last step cannot diverge"
               perturb_at steps)
        else Ok (`Perturb (draws, perturb_at, steps))
      | None, None, None ->
        let* cells = resolve_spec engine scenario steps in
        Ok (`Cells cells)
    in
    Term.(
      term_result'
        (const resolve $ engine_pos_t ~what:"bisect"
        $ scenario_name_t ~default:"steady" $ cell_steps_t $ file_a_t $ file_b_t
        $ perturb_rng_t $ perturb_at_t))
  in
  let run mode jobs_a jobs_b seed_b cells cadence seed jobs =
    setup_jobs jobs;
    let seed_b = Option.value seed_b ~default:seed in
    let report a_frames b_frames =
      match Audit.Bisect.first_divergence a_frames b_frames with
      | None ->
        Printf.printf "streams agree: %d frames, no divergence\n"
          (List.length a_frames);
        Ok ()
      | Some d ->
        print_endline (Audit.Bisect.describe d);
        Ok ()
    in
    match mode with
    | `Files (a, b) ->
      let frames path =
        let* data = read path in
        Result.map_error (fun msg -> path ^ ": " ^ msg) (Audit.Export.of_jsonl data)
      in
      let* fa = frames a in
      let* fb = frames b in
      report fa fb
    | `Perturb (n, perturb_at, steps) ->
      let spec = bisect_static_spec ~steps in
      let a = bisect_manual_run ~spec ~seed ~steps ~cadence ~perturb:None in
      let b =
        bisect_manual_run ~spec ~seed:seed_b ~steps ~cadence
          ~perturb:(Some (n, perturb_at))
      in
      Printf.printf
        "mis-seeding demo: 1 msg cell x %d static steps, %d draws \
         stolen after step %d\n"
        steps n perturb_at;
      report (Audit.Recorder.frames a) (Audit.Recorder.frames b)
    | `Cells (engine, spec) ->
      let a = bisect_cells_run ~engine ~spec ~seed ~cells ~cadence ~jobs:jobs_a in
      let b =
        bisect_cells_run ~engine ~spec ~seed:seed_b ~cells ~cadence ~jobs:jobs_b
      in
      Printf.printf
        "scenario %s on %s: 2 runs x %d cells x %d steps (cadence %d)\n"
        spec.Scenario.Spec.name (Scenario.engine_name engine) cells
        spec.Scenario.Spec.steps cadence;
      report (Audit.Recorder.frames a) (Audit.Recorder.frames b)
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:
         "Run two configurations of the same scenario (or read two \
          recorded digest streams) and report the first step and \
          subsystem whose state digests diverge.")
    Term.(
      term_result'
        (const run $ mode_t $ jobs_a_t $ jobs_b_t $ seed_b_t
        $ cells_t ~doc:"Independent simulation cells per run (double-run modes)."
        $ audit_cadence_t $ seed_t $ jobs_t))

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
  let run (engine, spec) cells list seed jobs =
    setup_jobs jobs;
    if list then begin
      print_catalogue Scenario.catalogue;
      Ok ()
    end
    else begin
      let results = Scenario.cells ~engine ~seed ~cells spec in
      Printf.printf "scenario %s on %s: %d cells x %d steps (seed %d)\n\n"
        spec.Scenario.Spec.name (Scenario.engine_name engine) cells
        spec.Scenario.Spec.steps seed;
      List.iter
        (fun (label, s) ->
          Printf.printf "  %-16s %s\n" label (Scenario.Stats.summary s))
        results;
      Printf.printf "\ntotal messages: %d\n" (total_messages results);
      Ok ()
    end
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run a named scenario from the registry on the state-level and/or \
          message-level driver and report per-cell statistics.")
    Term.(
      term_result'
        (const run $ spec_t engine_t name_t
        $ cells_t
            ~doc:
              "Independent simulation cells, fanned out on the Exec pool; the \
               report is byte-identical for any $(b,-j)."
        $ list_t "scenario registry" $ seed_t $ jobs_t))

(* ---------------- init ---------------- *)

let init_cmd =
  let run seed params n0 =
    let engine = make_engine ~seed ~params ~n0 in
    let r = Engine.init_report engine in
    Printf.printf "initialisation report (n0 = %d, N = %d):\n" r.Engine.n0
      params.Params.n_max;
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
  Cmd.v
    (Cmd.info "init" ~doc:"Run only the initialisation phase and report its cost.")
    Term.(
      const run $ seed_t
      $ params_t ~exact_walk:(const false) ~no_shuffle:(const false)
      $ n0_t)

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
