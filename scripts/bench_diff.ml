(* bench_diff — compare two BENCH_monitor.json files (baseline vs current)
   and flag out-of-band drift.

   Usage:  dune exec scripts/bench_diff.exe -- BASELINE CURRENT

   Exit codes:
     0  within band
     1  drift: an experiment regressed (ok -> not ok), its table shape
        changed (row count), an invariant aggregate moved, the violation
        tally changed, or an experiment's wall time regressed beyond the
        band (ratio > 2.0, ignored for runs under 100 ms).  On exit 1 the
        offending experiments are re-listed with both wall times after
        the summary line, so the blocking reason is visible without
        scrolling the full report.
     2  format error (missing or unreadable file, unparsable JSON, wrong
        format version, an experiment's rows or wall time not a finite
        number)

   Caller-domain allocation aggregates (alloc_bytes, present since the
   telemetry layer landed) are compared in a purely informational band:
   a big swing prints an ok-line suggesting a look, and never blocks —
   allocation depends on GC pacing and inlining, not just the workload.

   The > 2.0x regression band is wide enough to absorb machine-to-machine
   variation, so CI treats exit 1 as blocking.  Speedups (ratio < 0.5)
   are reported informationally only — a faster run is a reason to
   refresh the committed baseline, not to fail the build.  Absolute wall
   times are always informational; only the per-experiment ratio and the
   deterministic fields gate. *)

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

open Bench_json

let experiments j =
  match member "experiments" j with
  | Arr items ->
    List.map
      (fun item ->
        match member "id" item with
        | Str id -> (id, item)
        | _ -> format_error "experiment id is not a string")
      items
  | _ -> format_error "\"experiments\" is not an array"

(* Every gated experiment field must be a finite number: a null one
   reads as nan, and a nan wall time or row count passes every
   comparison below.  The invariant aggregates may be null (no sample of
   their series), and then must be null in both files. *)
let load path =
  let j = parse_or_exit ~where:path (read_file path) in
  if num "format" j <> 1.0 then format_error "%s: unknown format version" path;
  List.iter
    (fun (id, item) ->
      let where = path ^ ": " ^ id in
      ignore (finite ~where "rows" item);
      ignore (finite ~where "wall_seconds" item))
    (experiments j);
  j

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let drift = ref false

let report fmt =
  Printf.ksprintf
    (fun msg ->
      drift := true;
      Printf.printf "DRIFT  %s\n" msg)
    fmt

let info fmt = Printf.ksprintf (fun msg -> Printf.printf "ok     %s\n" msg) fmt

let wall_band_lo = 0.5
let wall_band_hi = 2.0
let wall_floor = 0.1 (* runs under 100 ms are all noise *)
let float_tol = 1e-6
let alloc_band = 2.0 (* informational only — never blocks *)
let alloc_floor = 1e6 (* runs allocating under 1 MB are all noise *)

(* (id, baseline wall, current wall) of every blocking timing regression,
   re-listed after the summary line on exit 1. *)
let wall_offenders : (string * float * float) list ref = ref []

(* Returns the ids present only in the current run: additions are
   informational (a growing suite is not drift), and the invariant
   aggregates below are compared in a mode that knows about them. *)
let compare_experiments base cur =
  let b = experiments base and c = experiments cur in
  List.iter
    (fun (id, bx) ->
      match List.assoc_opt id c with
      | None -> report "experiment %s disappeared from the current run" id
      | Some cx ->
        let b_ok = member "ok" bx = Bool true in
        let c_ok = member "ok" cx = Bool true in
        if b_ok && not c_ok then
          report "%s: paper-shape assertion regressed (ok -> not ok)" id
        else if (not b_ok) && c_ok then
          info "%s: paper-shape assertion now passes (was failing)" id;
        let b_rows = num "rows" bx and c_rows = num "rows" cx in
        if b_rows <> c_rows then
          report "%s: table shape changed (%g rows -> %g rows)" id b_rows c_rows;
        let b_wall = num "wall_seconds" bx and c_wall = num "wall_seconds" cx in
        if b_wall >= wall_floor || c_wall >= wall_floor then begin
          let ratio = if b_wall > 0.0 then c_wall /. b_wall else infinity in
          if ratio > wall_band_hi then begin
            wall_offenders := (id, b_wall, c_wall) :: !wall_offenders;
            report "%s: wall time %.3fs -> %.3fs (%.2fx, band <= %.1fx)" id
              b_wall c_wall ratio wall_band_hi
          end
          else if ratio < wall_band_lo then
            (* A big speedup is baseline staleness, not a failure. *)
            info "%s: wall time %.3fs -> %.3fs (%.2fx speedup; baseline stale?)"
              id b_wall c_wall ratio
        end;
        (match (num_opt "alloc_bytes" bx, num_opt "alloc_bytes" cx) with
        | Some b_alloc, Some c_alloc
          when b_alloc >= alloc_floor || c_alloc >= alloc_floor ->
          let ratio = if b_alloc > 0.0 then c_alloc /. b_alloc else infinity in
          if ratio > alloc_band || ratio < 1.0 /. alloc_band then
            info
              "%s: caller-domain alloc %.1f MB -> %.1f MB (%.2fx; \
               informational, never blocks)"
              id (b_alloc /. 1e6) (c_alloc /. 1e6) ratio
        | _ -> ()))
    b;
  List.filter_map
    (fun (id, _) ->
      if List.assoc_opt id b = None then begin
        info "%s: new experiment (not in baseline)" id;
        Some id
      end
      else None)
    c

(* The invariant aggregates (sample counts, violation tallies, extrema)
   sum over every experiment in the run, so a newly added experiment
   legitimately moves them without any seeded value having drifted.  When
   [new_ids] is non-empty, aggregate mismatches are therefore reported as
   informational lines naming the additions — the right fix is to
   regenerate the baseline, not to fail the build.  With no additions,
   any movement is real drift and blocks. *)
let compare_invariants ~new_ids base cur =
  let b = member "invariants" base and c = member "invariants" cur in
  let additions = String.concat ", " new_ids in
  let aggregate fmt =
    if new_ids = [] then report fmt
    else
      Printf.ksprintf
        (fun msg ->
          Printf.printf
            "ok     %s — new experiment(s) %s contribute to the aggregates; \
             regenerate BENCH_monitor.json to re-arm this check\n"
            msg additions)
        fmt
  in
  let scalar name =
    let bv = num name b and cv = num name c in
    let same =
      (Float.is_nan bv && Float.is_nan cv) || Float.abs (bv -. cv) <= float_tol
    in
    if not same then
      aggregate "invariant %s moved: %g -> %g (seeded value, must not drift)"
        name bv cv
  in
  scalar "samples";
  scalar "violations";
  scalar "honest_frac_min";
  scalar "cluster_size_max";
  scalar "overlay_degree_max";
  scalar "expansion_min";
  let tally j =
    match member "violations_by_invariant" j with
    | Obj fields ->
      List.map (fun (k, v) -> (k, to_num ("violations_by_invariant." ^ k) v)) fields
    | _ -> format_error "\"violations_by_invariant\" is not an object"
  in
  let bt = List.sort compare (tally b) and ct = List.sort compare (tally c) in
  if bt <> ct then begin
    let show t =
      String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) t)
    in
    aggregate "violation tally changed: {%s} -> {%s}" (show bt) (show ct)
  end

let () =
  let usage () =
    prerr_endline "usage: bench_diff BASELINE.json CURRENT.json";
    exit 2
  in
  match Sys.argv with
  | [| _; baseline_path; current_path |] ->
    let base = load baseline_path and cur = load current_path in
    (match (member "mode" base, member "mode" cur) with
    | Str bm, Str cm when bm <> cm ->
      format_error "mode mismatch: baseline %s vs current %s" bm cm
    | Str _, Str _ -> ()
    | _ -> format_error "\"mode\" is not a string");
    let new_ids = compare_experiments base cur in
    compare_invariants ~new_ids base cur;
    if !drift then begin
      print_endline "==> out-of-band drift against the baseline";
      List.iter
        (fun (id, b_wall, c_wall) ->
          Printf.printf "    %s: %.3fs -> %.3fs (%.2fx regression)\n" id b_wall
            c_wall (c_wall /. b_wall))
        (List.rev !wall_offenders);
      exit 1
    end
    else print_endline "==> within band"
  | _ -> usage ()
