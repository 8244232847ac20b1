(* bench_report — render BENCH_history.jsonl (appended by
   `bench/main.exe --history FILE`) as a self-contained SVG/HTML
   dashboard of per-experiment wall time, caller-domain allocation and
   peak live words (a Gc-alarm footprint sample, present since the
   flat-arena engine landed) across runs.  All three are informational
   operator telemetry — nothing here gates.

   Usage:  dune exec scripts/bench_report.exe -- HISTORY.jsonl OUT.html

   Exit codes follow bench_diff: 0 rendered, 2 format error (missing or
   unreadable file, unparsable line, wrong format version).  The document
   embeds everything (styles, charts) — no external assets — so it can be
   archived as a CI artifact and opened anywhere. *)

open Bench_json

type run = {
  mode : string;
  stamp : float;
  cells : (string * (bool * float * float option * float option)) list;
      (* id -> ok, wall seconds, alloc bytes, peak live words *)
}

let parse_line lineno line =
  let j = parse_or_exit ~where:(Printf.sprintf "line %d" lineno) line in
  if num "format" j <> 1.0 then
    format_error "line %d: unknown format version" lineno;
  let mode =
    match member "mode" j with
    | Str m -> m
    | _ -> format_error "line %d: \"mode\" is not a string" lineno
  in
  let cells =
    match member "experiments" j with
    | Arr items ->
      List.map
        (fun item ->
          let id =
            match member "id" item with
            | Str id -> id
            | _ -> format_error "line %d: experiment id is not a string" lineno
          in
          let ok = member "ok" item = Bool true in
          ( id,
            ( ok,
              num "wall_seconds" item,
              num_opt "alloc_bytes" item,
              num_opt "peak_live_words" item ) ))
        items
    | _ -> format_error "line %d: \"experiments\" is not an array" lineno
  in
  { mode; stamp = num "stamp" j; cells }

let load path =
  let lines =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then format_error "%s: empty history" path;
  List.mapi (fun i l -> parse_line (i + 1) l) lines

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let short v = Printf.sprintf "%.4g" v

let chart_w = 560.0
let chart_h = 140.0
let pad_l = 50.0
let pad_r = 12.0
let pad_t = 10.0
let pad_b = 22.0

(* One polyline over run indices (evenly spaced — runs are an ordered
   log, not a time axis), values scaled to [vlo, vhi]. *)
let polyline buf ~cls ~n ~vlo ~vhi points =
  let x i =
    if n <= 1 then pad_l +. ((chart_w -. pad_l -. pad_r) /. 2.0)
    else
      pad_l
      +. (chart_w -. pad_l -. pad_r) *. (float_of_int i /. float_of_int (n - 1))
  in
  let y v =
    chart_h -. pad_b
    -. ((chart_h -. pad_t -. pad_b) *. ((v -. vlo) /. (vhi -. vlo)))
  in
  (match points with
  | [ (i, v) ] ->
    Printf.bprintf buf "<circle class=\"dot %s\" cx=\"%.2f\" cy=\"%.2f\" r=\"3\"/>\n"
      cls (x i) (y v)
  | pts ->
    Printf.bprintf buf "<polyline class=\"%s\" points=\"%s\"/>\n" cls
      (String.concat " "
         (List.map (fun (i, v) -> Printf.sprintf "%.2f,%.2f" (x i) (y v)) pts)));
  List.iter
    (fun (i, v) ->
      Printf.bprintf buf
        "<circle class=\"hit\" cx=\"%.2f\" cy=\"%.2f\" r=\"7\"><title>run \
         %d: %s</title></circle>\n"
        (x i) (y v) (i + 1)
        (html_escape (short v)))
    points

let card buf ~id ~n walls allocs lives oks =
  let bpf fmt = Printf.bprintf buf fmt in
  bpf "<section class=\"card\">\n<header>\n<div>\n<h3>%s</h3>\n"
    (html_escape id);
  let failures = List.length (List.filter (fun (_, ok) -> not ok) oks) in
  bpf "<p class=\"labels\">wall seconds per run%s%s</p>\n"
    (match allocs with [] -> "" | _ -> " · alloc MB dashed, own scale")
    (match lives with [] -> "" | _ -> " · live Mwords dotted, own scale");
  bpf "</div>\n";
  (match List.rev walls with
  | (_, last) :: _ -> bpf "<p class=\"hero\">%ss</p>\n" (html_escape (short last))
  | [] -> ());
  bpf "</header>\n";
  bpf
    "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" aria-label=\"%s wall time \
     across runs\">\n"
    chart_w chart_h (html_escape id);
  let values = List.map snd walls in
  let vlo = List.fold_left min infinity values in
  let vhi = List.fold_left max neg_infinity values in
  let vlo, vhi = if vhi > vlo then (vlo, vhi) else (vlo -. 0.5, vhi +. 0.5) in
  let span = vhi -. vlo in
  let vlo = vlo -. (0.08 *. span) and vhi = vhi +. (0.08 *. span) in
  let y v =
    chart_h -. pad_b
    -. ((chart_h -. pad_t -. pad_b) *. ((v -. vlo) /. (vhi -. vlo)))
  in
  let gridline v =
    bpf
      "<line class=\"grid\" x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\"/>\n\
       <text class=\"tick\" x=\"%.2f\" y=\"%.2f\" text-anchor=\"end\">%s</text>\n"
      pad_l (y v) (chart_w -. pad_r) (y v) (pad_l -. 5.0) (y v +. 3.0)
      (html_escape (short v))
  in
  gridline vhi;
  gridline ((vlo +. vhi) /. 2.0);
  bpf
    "<line class=\"baseline\" x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\"/>\n"
    pad_l (chart_h -. pad_b) (chart_w -. pad_r) (chart_h -. pad_b);
  bpf "<text class=\"tick\" x=\"%.2f\" y=\"%.2f\">run 1</text>\n" pad_l
    (chart_h -. 6.0);
  bpf
    "<text class=\"tick\" x=\"%.2f\" y=\"%.2f\" text-anchor=\"end\">run \
     %d</text>\n"
    (chart_w -. pad_r) (chart_h -. 6.0) n;
  (* Alloc and live-words trends on their own scales, drawn first so
     wall stays on top. *)
  let own_scale cls = function
    | [] -> ()
    | pts ->
      let vs = List.map snd pts in
      let lo = List.fold_left min infinity vs in
      let hi = List.fold_left max neg_infinity vs in
      let lo, hi = if hi > lo then (lo, hi) else (lo -. 0.5, hi +. 0.5) in
      polyline buf ~cls ~n ~vlo:lo ~vhi:hi pts
  in
  own_scale "live" lives;
  own_scale "alloc" allocs;
  polyline buf ~cls:"series" ~n ~vlo ~vhi walls;
  List.iter
    (fun (i, ok) ->
      if not ok then
        let x =
          if n <= 1 then pad_l +. ((chart_w -. pad_l -. pad_r) /. 2.0)
          else
            pad_l
            +. (chart_w -. pad_l -. pad_r)
               *. (float_of_int i /. float_of_int (n - 1))
        in
        bpf
          "<circle class=\"breach\" cx=\"%.2f\" cy=\"%.2f\" r=\"4\"><title>run \
           %d: paper-shape assertion failed</title></circle>\n"
          x (chart_h -. pad_b) (i + 1))
    oks;
  bpf "</svg>\n";
  let stats values unit =
    let n = List.length values in
    if n = 0 then ""
    else
      let sorted = List.sort compare values in
      Printf.sprintf "<span>min %s%s</span><span>max %s%s</span>"
        (html_escape (short (List.nth sorted 0)))
        unit
        (html_escape (short (List.nth sorted (n - 1))))
        unit
  in
  bpf "<p class=\"stats\">%s%s%s<span>%d runs</span>" (stats values "s")
    (match allocs with
    | [] -> ""
    | al -> stats (List.map snd al) "&nbsp;MB alloc")
    (match lives with
    | [] -> ""
    | lv -> stats (List.map snd lv) "&nbsp;Mw live")
    n;
  if failures > 0 then
    bpf "<span class=\"crit\">&#10007; %d failing runs</span>" failures;
  bpf "</p>\n</section>\n"

let style =
  {css|
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --critical: #d03b3b; --good: #006300;
  --ring: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --critical: #d03b3b; --good: #0ca30c;
    --ring: rgba(255,255,255,0.10);
  }
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h3 { font-size: 13px; font-weight: 600; margin: 0; }
.meta { color: var(--ink-2); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 18px; }
.tile { background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 16px; min-width: 150px; }
.tile .k { color: var(--ink-2); font-size: 12px; }
.tile .v { font-size: 24px; font-weight: 600; }
.grid-cards { display: grid; gap: 14px;
  grid-template-columns: repeat(auto-fill, minmax(340px, 1fr)); }
.card { background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 14px; }
.card header { display: flex; justify-content: space-between; gap: 10px;
  align-items: baseline; margin-bottom: 6px; }
.card .labels { color: var(--ink-2); font-size: 11px; margin: 2px 0 0; }
.card .hero { font-size: 22px; font-weight: 600; margin: 0;
  white-space: nowrap; }
.card svg { width: 100%; height: auto; display: block; }
.card .stats { display: flex; gap: 14px; color: var(--ink-2); font-size: 11px;
  margin: 6px 0 0; font-variant-numeric: tabular-nums; }
.card .stats .crit { color: var(--critical); font-weight: 600; }
.grid { stroke: var(--grid); stroke-width: 1; }
.baseline { stroke: var(--baseline); stroke-width: 1; }
.tick { fill: var(--muted); font-size: 10px;
  font-variant-numeric: tabular-nums; }
.series { fill: none; stroke: var(--series-1); stroke-width: 2;
  stroke-linejoin: round; stroke-linecap: round; }
.alloc { fill: none; stroke: var(--muted); stroke-width: 1.5;
  stroke-dasharray: 5 4; }
.live { fill: none; stroke: var(--good); stroke-width: 1.5;
  stroke-dasharray: 2 4; }
.dot.series { fill: var(--series-1); stroke: none; }
.dot.alloc { fill: var(--muted); stroke: none; }
.dot.live { fill: var(--good); stroke: none; }
.breach { fill: var(--critical); stroke: var(--surface-1); stroke-width: 2; }
.hit { fill: transparent; }
.hit:hover { fill: var(--series-1); fill-opacity: 0.25; }
|css}

let render runs =
  let n = List.length runs in
  let ids =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map fst r.cells) runs)
  in
  let buf = Buffer.create 65536 in
  let bpf fmt = Printf.bprintf buf fmt in
  bpf
    "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
     <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
     <title>nowlib bench history</title>\n<style>%s</style>\n</head>\n<body>\n"
    style;
  bpf "<h1>nowlib bench history</h1>\n";
  let last = List.nth runs (n - 1) in
  bpf
    "<p class=\"meta\">per-experiment wall time, caller-domain allocation and \
     peak live words across recorded bench runs · latest: %s mode, stamp \
     %.0f</p>\n"
    (html_escape last.mode) last.stamp;
  bpf "<div class=\"tiles\">\n";
  bpf
    "<div class=\"tile\"><div class=\"k\">runs</div><div \
     class=\"v\">%d</div></div>\n"
    n;
  bpf
    "<div class=\"tile\"><div class=\"k\">experiments</div><div \
     class=\"v\">%d</div></div>\n"
    (List.length ids);
  let total_wall =
    List.fold_left (fun acc (_, (_, w, _, _)) -> acc +. w) 0.0 last.cells
  in
  bpf
    "<div class=\"tile\"><div class=\"k\">latest total wall</div><div \
     class=\"v\">%ss</div></div>\n"
    (html_escape (short total_wall));
  bpf "</div>\n<div class=\"grid-cards\">\n";
  List.iter
    (fun id ->
      let walls = ref [] and allocs = ref [] and lives = ref [] in
      let oks = ref [] in
      List.iteri
        (fun i r ->
          match List.assoc_opt id r.cells with
          | None -> ()
          | Some (ok, wall, alloc, live) ->
            walls := (i, wall) :: !walls;
            oks := (i, ok) :: !oks;
            (match alloc with
            | Some a -> allocs := (i, a /. 1e6) :: !allocs
            | None -> ());
            (match live with
            | Some lw -> lives := (i, lw /. 1e6) :: !lives
            | None -> ()))
        runs;
      card buf ~id ~n (List.rev !walls) (List.rev !allocs) (List.rev !lives)
        (List.rev !oks))
    ids;
  bpf "</div>\n</body>\n</html>\n";
  Buffer.contents buf

let () =
  match Sys.argv with
  | [| _; history_path; out_path |] ->
    let runs = load history_path in
    let html = render runs in
    let oc = open_out out_path in
    output_string oc html;
    close_out oc;
    Printf.printf "bench_report: %d runs, wrote %s\n" (List.length runs)
      out_path
  | _ ->
    prerr_endline "usage: bench_report HISTORY.jsonl OUT.html";
    exit 2
