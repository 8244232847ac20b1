(* Benchmark harness: regenerates every table/figure reproduction (the
   experiment suite E1-E15, F1-F2 and ablations A1-A2 of DESIGN.md) and a
   per-experiment primitive breakdown of each experiment's dominant
   operation.  Per-call timings of each layer come from perfbench's traced
   run (perfbench/run.py --trace 1).

   Usage:  dune exec bench/main.exe -- [--full] [--monitor-json FILE]
                                       [--history FILE] [-j N] [IDS...]
     --full        run experiments at EXPERIMENTS.md scale (slow)
     --monitor-json FILE
                   run the experiments under the invariant monitor and
                   write per-experiment wall times + the invariant summary
                   to FILE (scripts/bench_diff.ml compares two such files;
                   the committed baseline is BENCH_monitor.json).  Stdout
                   is unchanged — wall times live only in the file.
     --history FILE
                   append one line of per-experiment wall time, allocation
                   and peak live words to FILE (scripts/bench_report.ml
                   renders it; the committed log is BENCH_history.jsonl)
     -j N          worker domains for the Exec pool (default: available
                   cores; -j 1 reproduces the sequential run — tables are
                   byte-identical either way)
     IDS           experiment ids (default: all of E1..E15 F1 F2 A1 A2)
   Unknown --flags are ignored. *)

module Engine = Now_core.Engine
module Node = Now_core.Node
module Params = Now_core.Params
module Rng = Prng.Rng

let quote = Metrics.Json.quote

(* ------------------------------------------------------------------ *)
(* Breakdown fixtures                                                  *)
(* ------------------------------------------------------------------ *)

let population rng n tau =
  List.init n (fun _ -> if Rng.bernoulli rng tau then Node.Byzantine else Node.Honest)

let small_engine ?(walk_mode = Params.Direct_sample) ?(shuffle = true) () =
  let params =
    Params.make ~n_max:(1 lsl 10) ~k:3 ~tau:0.15 ~walk_mode
      ~shuffle_on_churn:shuffle ()
  in
  let rng = Rng.create 42L in
  Engine.create ~seed:42L params ~initial:(population rng 300 0.15)

(* ------------------------------------------------------------------ *)
(* Per-experiment primitive breakdown (trace collector)                 *)
(* ------------------------------------------------------------------ *)

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

(* ------------------------------------------------------------------ *)
(* Invariant/timing summary (--monitor-json)                           *)
(* ------------------------------------------------------------------ *)

(* BENCH_monitor.json: per-experiment wall time + allocation + the run's
   invariant summary, consumed by scripts/bench_diff.ml.  The wall times
   and caller-domain allocation deltas are the only nondeterministic
   fields — the comparator treats wall times leniently (a drift band)
   and allocation informationally, while the invariant aggregates are
   seeded and must match the baseline exactly. *)
let write_monitor_json ~path ~mode ~results ~timings store =
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
  Buffer.add_string buf "    \"violations_by_invariant\": {";
  List.iteri
    (fun i (inv, n) ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s: %d" (if i = 0 then "" else ", ") (quote inv) n))
    tally;
  Buffer.add_string buf "}\n  }\n}\n";
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* BENCH_history.jsonl: one appended line per --history run — the perf
   trajectory scripts/bench_report.ml renders.  Opt-in (a plain bench run
   never touches the file), and stamped with real time: the history file
   is an operator log, not a gated artifact.  peak_live_words (format 1,
   optional field) carries the Gc-alarm footprint sample; like wall and
   alloc it is rendered informationally and never compared. *)
let append_history ~path ~mode ~results ~timings =
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
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "appended history entry to %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let rec parse_jobs = function
    | [] -> None
    | ("-j" | "--jobs") :: n :: _ -> (
      match int_of_string_opt n with
      | Some j when j >= 1 -> Some j
      | _ -> failwith (Printf.sprintf "bench: -j expects a positive integer, got %S" n))
    | ("-j" | "--jobs") :: [] -> failwith "bench: -j expects an argument"
    | _ :: rest -> parse_jobs rest
  in
  (match parse_jobs args with
  | Some j -> Exec.set_default_jobs j
  | None -> ());
  let rec parse_monitor_json = function
    | [] -> None
    | "--monitor-json" :: path :: _ -> Some path
    | [ "--monitor-json" ] -> failwith "bench: --monitor-json expects an argument"
    | _ :: rest -> parse_monitor_json rest
  in
  let monitor_json = parse_monitor_json args in
  let rec parse_history = function
    | [] -> None
    | "--history" :: path :: _ -> Some path
    | [ "--history" ] -> failwith "bench: --history expects an argument"
    | _ :: rest -> parse_history rest
  in
  let history = parse_history args in
  let ids =
    let rec strip = function
      | [] -> []
      | ("-j" | "--jobs" | "--monitor-json" | "--history") :: _ :: rest ->
        strip rest
      | a :: rest ->
        if String.length a >= 2 && String.sub a 0 2 = "--" then strip rest
        else a :: strip rest
    in
    strip args
  in
  let mode = if full then Harness.Common.Full else Harness.Common.Quick in
  (* Note: the job count is deliberately not echoed — the whole point is
     that the output is byte-identical for any -j, and the CI determinism
     gate diffs these outputs across -j values. *)
  Printf.printf
    "NOW/OVER reproduction bench — experiments %s in %s mode\n\n%!"
    (match ids with [] -> "E1..E15, F1, F2, A1, A2" | _ -> String.concat ", " ids)
    (if full then "FULL" else "QUICK");
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
  let store =
    match monitor_json with None -> None | Some _ -> Some (Monitor.create ())
  in
  let results =
    match store with
    | None -> Harness.Registry.run_ids ~wrap ~mode ids
    | Some m ->
      Monitor.with_monitor m (fun () ->
          Harness.Registry.run_ids ~wrap ~mode ids)
  in
  let ok = List.length (List.filter (fun r -> r.Harness.Common.ok) results) in
  Printf.printf "==> %d/%d experiments reproduce the paper's shape.\n\n%!" ok
    (List.length results);
  (match (store, monitor_json) with
  | Some m, Some path ->
    write_monitor_json ~path ~mode:(if full then "full" else "quick") ~results
      ~timings m
  | _ -> ());
  (match history with
  | Some path ->
    append_history ~path ~mode:(if full then "full" else "quick") ~results
      ~timings
  | None -> ());
  run_breakdown ();
  if ok < List.length results then exit 1
