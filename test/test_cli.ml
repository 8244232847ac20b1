(* now_sim's command-line contract: a bad value, a bad flag or a path the
   system refuses is reported (exit 124 and a "now_sim:" line on stderr),
   never an uncaught exception (exit 125) and never a run of something
   other than what was asked; and the files that
   [now_sim experiments --monitor-json/--history] writes read back through
   scripts/bench_diff and scripts/bench_report. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let exe rel = Filename.concat (Sys.getcwd ()) rel
let now_sim = exe "../bin/now_sim.exe"

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let slurp path = In_channel.with_open_bin path In_channel.input_all

(* Run [f dir] in a fresh directory holding one regular file, FILE, and
   remove the directory afterwards. *)
let in_temp_dir f =
  let dir = Filename.temp_dir "now_sim_cli" "" in
  Out_channel.with_open_bin (Filename.concat dir "FILE") ignore;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* [run dir cmd args] runs [cmd args] inside [dir]; the exit code and the
   captured stderr. *)
let run dir cmd args =
  let err = Filename.concat dir "stderr.txt" in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s %s > /dev/null 2> %s" (Filename.quote dir)
         (Filename.quote cmd) args (Filename.quote err))
  in
  (code, slurp err)

(* MISSING is a directory that does not exist; FILE is a regular file. *)
let refused =
  [
    "churn --tau=-0.1 --steps 1";
    "churn --tau 2 --steps 1";
    "churn -k 0 --steps 1";
    "churn --n-max 1 --steps 1";
    "init --tau=-1";
    "churn --n0 0 --steps 1";
    "trace --out MISSING/t.jsonl --steps 1 --cells 1";
    "trace --chrome MISSING/c.json --steps 1 --cells 1";
    "monitor --out MISSING/m.jsonl --steps 1 --cells 1";
    "audit --out MISSING/a.jsonl --steps 1 --cells 1";
    "experiments E7 --csv FILE";
    "experiments E7 --monitor FILE";
    "churn --steps 3 --save-snapshot MISSING/s";
    "churn --steps=-5";
    "trace msg --steps=-3 --cells 1";
    "bisect mixed --jobs-a 0 --steps 1 --cells 1";
    "byz --byz-tau nan";
    "monitor --byz-tau nan --steps 1 --cells 1";
    "churn --tau nan --steps 1";
    "init --tau nan";
    "experiments E99";
    "experiments -j 0 E7";
    "experiments --monitr-json x E7";
    "experiments E7 --monitor-json MISSING/x";
    "experiments E7 --history MISSING/h";
    "bisect --perturb-rng 3 --steps 5 --perturb-at 10";
  ]
  (* A device that refuses every write: the error surfaces only when the
     channel is flushed at close. *)
  @
  if Sys.file_exists "/dev/full" then
    [ "experiments E7 --history /dev/full"; "experiments E7 --monitor-json /dev/full" ]
  else []

let test_refused args () =
  in_temp_dir (fun dir ->
      let code, err = run dir now_sim args in
      checki "exit 124" 124 code;
      checkb "a now_sim: line on stderr" true (contains "now_sim: " err);
      checkb "no uncaught exception" false (contains "uncaught exception" err))

(* Damaged snapshots are bad input too: a one-line garbage file (the
   loader's [Failure]) and the first 300 bytes of a valid snapshot
   ([End_of_file]). *)
let test_resume_damaged_snapshot () =
  in_temp_dir (fun dir ->
      let path name = Filename.concat dir name in
      Out_channel.with_open_bin (path "G") (fun oc ->
          Out_channel.output_string oc "garbage\n");
      checki "churn --save-snapshot exit 0" 0
        (fst (run dir now_sim "churn --seed 11 --steps 20 --save-snapshot S"));
      let valid = slurp (path "S") in
      Out_channel.with_open_bin (path "T") (fun oc ->
          Out_channel.output_string oc (String.sub valid 0 300));
      List.iter
        (fun file ->
          let args = "resume --snapshot " ^ file ^ " --steps 5" in
          let code, err = run dir now_sim args in
          checki (args ^ ": exit 124") 124 code;
          checkb (args ^ ": names the file") true (contains ("now_sim: " ^ file) err);
          checkb (args ^ ": no uncaught exception") false
            (contains "uncaught exception" err))
        [ "G"; "T" ])

(* The two switches no other test or CI step turns on. *)
let test_exec_stats_switches () =
  in_temp_dir (fun dir ->
      List.iter
        (fun args ->
          let code, err = run dir now_sim args in
          checki args 0 code;
          checkb (args ^ ": quiet stderr") false (contains "now_sim: " err))
        [
          "trace msg --profile-alloc --exec-stats --steps 1 --cells 1";
          "monitor state --exec-stats --steps 1 --cells 1";
        ])

(* Two runs append two history lines; the summary compares clean against
   itself and the history renders a chart. *)
let test_bench_records_round_trip () =
  in_temp_dir (fun dir ->
      for _ = 1 to 2 do
        let code, _ =
          run dir now_sim "experiments E7 -j 1 --monitor-json F --history H"
        in
        checki "experiments exit 0" 0 code
      done;
      let history = slurp (Filename.concat dir "H") in
      checki "one history line per run" 2
        (List.length (String.split_on_char '\n' (String.trim history)));
      checki "bench_diff F F" 0 (fst (run dir (exe "../scripts/bench_diff.exe") "F F"));
      checki "bench_report H out.html" 0
        (fst (run dir (exe "../scripts/bench_report.exe") "H out.html"));
      checkb "the report draws a chart" true
        (contains "<svg" (slurp (Filename.concat dir "out.html"))))

let suite =
  List.map
    (fun args -> Alcotest.test_case ("refused: " ^ args) `Quick (test_refused args))
    refused
  @ [
      Alcotest.test_case "resume refuses damaged snapshots" `Quick
        test_resume_damaged_snapshot;
      Alcotest.test_case "exec-stats and profile-alloc run" `Quick
        test_exec_stats_switches;
      Alcotest.test_case "bench records round trip" `Slow
        test_bench_records_round_trip;
    ]
