(* The benchmark program: one run of one workload, closed loop, seeded.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   --seconds sizes the timed phase: a fixed number of steps per workload
   that takes about that long on the reference host.  The last line of
   standard output is the result object.  With --trace 0 its metrics are
   the end-to-end ones; with --trace 1 they are the per-layer ones, and
   the run also writes its spans (JSONL) and the per-layer table under
   DIR (default .bench_out).  A failed correctness check exits 1 without
   a result. *)

open Perfbench

let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]"

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 in
  let trace = ref 0 and out = ref ".bench_out" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME " ^ String.concat "|" (List.map (fun (s : Workload.spec) -> s.name) Workload.catalogue)
      );
      ("--seed", Arg.Int (fun s -> seed := Some s), "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S size of the timed phase, in reference-host seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--out", Arg.Set_string out, "DIR where the traced run writes spans and its table");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die msg =
    prerr_endline ("error: " ^ msg);
    exit 2
  in
  let spec = match Workload.find !workload with Some s -> s | None -> die ("unknown workload " ^ !workload) in
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  if !seconds < 0.0 then die "--seconds must be non-negative";
  let steps = Workload.steps spec ~seconds:!seconds in
  try
    match !trace with
    | 0 ->
      let r = Bench.untraced spec ~seed ~steps in
      let d = r.phase.det in
      Printf.printf
        "%s seed=%d steps=%d wall=%.3fs cpu=%.3fs failed_op_share=%.6f safety_breaches_per_kstep=%.6f\n"
        spec.name seed steps (Bench.secs r.phase.wall_ns) r.phase.cpu_s d.failed_op_share
        d.safety_breaches_per_kstep;
      let metrics = Bench.e2e_metrics r in
      print_string (Bench.table metrics);
      print_endline
        (Bench.result_json ~correct:true ~attempted:r.phase.attempted ~failed:r.phase.raised metrics)
    | 1 ->
      let t = Bench.traced spec ~seed ~steps in
      if t.gc_lost > 0 then Printf.eprintf "warning: the GC lane lost %d events\n%!" t.gc_lost;
      let base = Filename.concat !out (Printf.sprintf "%s-seed%d" spec.name seed) in
      if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
      Spans.write_jsonl (base ^ ".spans.jsonl") t.spans;
      let tbl = Bench.table t.layers in
      Out_channel.with_open_text (base ^ ".layers.txt") (fun oc -> output_string oc tbl);
      print_string tbl;
      Printf.printf "spans: %s.spans.jsonl\n" base;
      print_endline
        (Bench.result_json ~correct:true ~attempted:t.t_attempted ~failed:t.t_raised t.layers)
    | _ -> die "--trace must be 0 or 1"
  with Workload.Check_failed msg ->
    prerr_endline ("correctness check failed: " ^ msg);
    exit 1
