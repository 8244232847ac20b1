(* bench_report — render BENCH_history.jsonl (appended by
   `now_sim experiments --history FILE`) as a self-contained SVG/HTML
   dashboard of per-experiment wall time, caller-domain allocation and
   peak live words (a Gc-alarm footprint sample, present since the
   flat-arena engine landed) across runs.  All three are informational
   operator telemetry — nothing here gates.

   Usage:  dune exec scripts/bench_report.exe -- HISTORY.jsonl OUT.html

   Exit codes follow bench_diff: 0 rendered, 2 format error (missing or
   unreadable file, unparsable line, wrong format version, unwritable
   output).  The document embeds everything (styles, charts) — no
   external assets — so it can be archived as a CI artifact and opened
   anywhere. *)

open Bench_json

type run = {
  mode : string;
  stamp : float;
  cells : (string * (bool * float * float option * float option)) list;
      (* id -> ok, wall seconds, alloc bytes, peak live words *)
}

let parse_line lineno line =
  let where = Printf.sprintf "line %d" lineno in
  let j = parse_or_exit ~where line in
  let finite = finite ~where in
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
              finite "wall_seconds" item,
              num_opt "alloc_bytes" item,
              num_opt "peak_live_words" item ) ))
        items
    | _ -> format_error "line %d: \"experiments\" is not an array" lineno
  in
  { mode; stamp = finite "stamp" j; cells }

(* Line numbers count every line of the file, blank ones included. *)
let load path =
  let runs =
    String.split_on_char '\n' (read_file path)
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter_map (fun (lineno, l) ->
           if String.trim l = "" then None else Some (parse_line lineno l))
  in
  if runs = [] then format_error "%s: empty history" path;
  runs

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

module Html = Metrics.Html

let geometry = { Html.height = 140.0; pad_b = 22.0 }

(* One polyline over run indices (evenly spaced — runs are an ordered
   log, not a time axis), values scaled to [vlo, vhi]. *)
let polyline buf ~cls ~n ~vlo ~vhi points =
  let x i = Html.x ~lo:0 ~hi:(n - 1) i in
  let y v = Html.y geometry ~vlo ~vhi v in
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
        (Html.escape (Html.short v)))
    points

let card buf ~id ~n walls allocs lives oks =
  let bpf fmt = Printf.bprintf buf fmt in
  bpf "<section class=\"card\">\n<header>\n<div>\n<h3>%s</h3>\n"
    (Html.escape id);
  let failures = List.length (List.filter (fun (_, ok) -> not ok) oks) in
  bpf "<p class=\"labels\">wall seconds per run%s%s</p>\n"
    (match allocs with [] -> "" | _ -> " · alloc MB dashed, own scale")
    (match lives with [] -> "" | _ -> " · live Mwords dotted, own scale");
  bpf "</div>\n";
  (match List.rev walls with
  | (_, last) :: _ -> bpf "<p class=\"hero\">%ss</p>\n" (Html.escape (Html.short last))
  | [] -> ());
  bpf "</header>\n";
  Html.open_svg buf geometry ~aria:(id ^ " wall time across runs");
  let values = List.map snd walls in
  let vlo, vhi = Html.padded_range values in
  Html.frame buf geometry ~vlo ~vhi;
  bpf "<text class=\"tick\" x=\"%.2f\" y=\"%.2f\">run 1</text>\n" Html.pad_l
    (geometry.height -. 6.0);
  bpf
    "<text class=\"tick\" x=\"%.2f\" y=\"%.2f\" text-anchor=\"end\">run \
     %d</text>\n"
    (Html.width -. Html.pad_r) (geometry.height -. 6.0) n;
  (* Alloc and live-words trends on their own scales, drawn first so
     wall stays on top. *)
  let own_scale cls = function
    | [] -> ()
    | pts ->
      let vlo, vhi = Html.range (List.map snd pts) in
      polyline buf ~cls ~n ~vlo ~vhi pts
  in
  own_scale "live" lives;
  own_scale "alloc" allocs;
  polyline buf ~cls:"series" ~n ~vlo ~vhi walls;
  List.iter
    (fun (i, ok) ->
      if not ok then
        bpf
          "<circle class=\"breach\" cx=\"%.2f\" cy=\"%.2f\" r=\"4\"><title>run \
           %d: paper-shape assertion failed</title></circle>\n"
          (Html.x ~lo:0 ~hi:(n - 1) i)
          (geometry.height -. geometry.pad_b)
          (i + 1))
    oks;
  bpf "</svg>\n";
  let stats values unit =
    let n = List.length values in
    if n = 0 then ""
    else
      let sorted = List.sort compare values in
      Printf.sprintf "<span>min %s%s</span><span>max %s%s</span>"
        (Html.escape (Html.short (List.nth sorted 0)))
        unit
        (Html.escape (Html.short (List.nth sorted (n - 1))))
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
  Html.css_base
  ^ {css|h3 { font-size: 13px; font-weight: 600; margin: 0; }
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
  Html.head buf ~title:"nowlib bench history" ~css:style;
  bpf "<h1>nowlib bench history</h1>\n";
  let last = List.nth runs (n - 1) in
  bpf
    "<p class=\"meta\">per-experiment wall time, caller-domain allocation and \
     peak live words across recorded bench runs · latest: %s mode, stamp \
     %.0f</p>\n"
    (Html.escape last.mode) last.stamp;
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
    (Html.escape (Html.short total_wall));
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
    write_file out_path html;
    Printf.printf "bench_report: %d runs, wrote %s\n" (List.length runs)
      out_path
  | _ ->
    prerr_endline "usage: bench_report HISTORY.jsonl OUT.html";
    exit 2
