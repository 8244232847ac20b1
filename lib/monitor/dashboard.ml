(* All geometry below is fixed-point formatted ("%.2f") and every text
   fragment is a pure function of the store contents, keeping the emitted
   document byte-deterministic. *)

module Html = Metrics.Html

let full = Store.float_repr

let labels_text labels =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

(* ------------------------------------------------------------------ *)
(* Grouping                                                            *)
(* ------------------------------------------------------------------ *)

type card = {
  c_series : string;
  c_labels : (string * string) list;
  c_kind : Store.kind;
  points : (int * float) list;  (* time-sorted *)
  bound_points : (int * float) list;
  marks : Store.violation list;  (* violations drawn on this card *)
}

let is_bound_series s =
  let suffix = ".bound" in
  let ls = String.length s and lx = String.length ".bound" in
  ls > lx && String.sub s (ls - lx) lx = suffix

let bound_base s = String.sub s 0 (String.length s - String.length ".bound")

(* A bound or violation family [base] annotates the cards graphing the
   family's extreme: [base] itself, [base.min] and [base.max]. *)
let family_matches ~base series =
  series = base || series = base ^ ".min" || series = base ^ ".max"

let group_cards store =
  let samples = Store.samples store in
  (* samples are sorted by (series, labels, time, ...): consecutive
     records with equal (series, labels) form one group. *)
  let groups =
    List.fold_left
      (fun acc (s : Store.sample) ->
        match acc with
        | ((series, labels, kind), pts) :: rest
          when series = s.series && labels = s.labels ->
            ((series, labels, kind), (s.time, s.value) :: pts) :: rest
        | _ -> ((s.series, s.labels, s.kind), [ (s.time, s.value) ]) :: acc)
      [] samples
  in
  let groups =
    List.rev_map (fun (key, pts) -> (key, List.rev pts)) groups
  in
  let violations = Store.violations store in
  List.filter_map
    (fun ((series, labels, kind), pts) ->
      if is_bound_series series then None
      else
        let bound_points =
          List.concat_map
            (fun ((bseries, blabels, _), bpts) ->
              if
                is_bound_series bseries && blabels = labels
                && family_matches ~base:(bound_base bseries) series
              then bpts
              else [])
            groups
        in
        let marks =
          List.filter
            (fun (v : Store.violation) ->
              v.v_labels = labels && family_matches ~base:v.invariant series)
            violations
        in
        Some { c_series = series; c_labels = labels; c_kind = kind;
               points = pts; bound_points; marks })
    groups

(* ------------------------------------------------------------------ *)
(* SVG chart                                                           *)
(* ------------------------------------------------------------------ *)

let geometry = { Html.height = 150.0; pad_b = 24.0 }

let chart buf card =
  let all_values =
    List.map snd card.points
    @ List.map snd card.bound_points
    @ List.map (fun (v : Store.violation) -> v.observed) card.marks
  in
  let all_times =
    List.map fst card.points @ List.map fst card.bound_points
    @ List.map (fun (v : Store.violation) -> v.v_time) card.marks
  in
  let tmin = List.fold_left min max_int all_times in
  let tmax = List.fold_left max min_int all_times in
  let vlo, vhi = Html.padded_range all_values in
  let x t = Html.x ~lo:tmin ~hi:tmax t in
  let y v = Html.y geometry ~vlo ~vhi v in
  let pt t v = Printf.sprintf "%.2f,%.2f" (x t) (y v) in
  let bpf fmt = Printf.bprintf buf fmt in
  let bottom = geometry.height -. geometry.pad_b in
  let right = Html.width -. Html.pad_r in
  Html.open_svg buf geometry
    ~aria:(card.c_series ^ " " ^ labels_text card.c_labels ^ " time series");
  (* recessive grid: two hairlines + baseline *)
  Html.frame buf geometry ~vlo ~vhi;
  bpf "<text class=\"tick\" x=\"%.2f\" y=\"%.2f\" text-anchor=\"end\">%s</text>\n"
    (Html.pad_l -. 5.0) (bottom +. 3.0) (Html.escape (Html.short vlo));
  bpf "<text class=\"tick\" x=\"%.2f\" y=\"%.2f\">t=%d</text>\n" Html.pad_l
    (geometry.height -. 8.0) tmin;
  bpf "<text class=\"tick\" x=\"%.2f\" y=\"%.2f\" text-anchor=\"end\">t=%d</text>\n"
    right (geometry.height -. 8.0) tmax;
  (* the bound: a dashed critical edge with a text label (never colour
     alone) *)
  (match card.bound_points with
  | [] -> ()
  | bpts ->
      let path =
        match bpts with
        | [ (_, v) ] ->
            (* a constant bound sampled once: stretch it across the plot *)
            Printf.sprintf "%.2f,%.2f %.2f,%.2f" Html.pad_l (y v) right (y v)
        | _ -> String.concat " " (List.map (fun (t, v) -> pt t v) bpts)
      in
      let _, bv = List.hd (List.rev bpts) in
      bpf "<polyline class=\"bound\" points=\"%s\"/>\n" path;
      bpf
        "<text class=\"bound-label\" x=\"%.2f\" y=\"%.2f\" \
         text-anchor=\"end\">bound %s</text>\n"
        (right -. 2.0)
        (y bv -. 4.0)
        (Html.escape (Html.short bv)));
  (* the series itself: one 2px line, so no legend is needed *)
  (match card.points with
  | [ (t, v) ] ->
      bpf "<circle class=\"dot\" cx=\"%.2f\" cy=\"%.2f\" r=\"3\"/>\n" (x t) (y v)
  | pts ->
      bpf "<polyline class=\"series\" points=\"%s\"/>\n"
        (String.concat " " (List.map (fun (t, v) -> pt t v) pts)));
  (match List.rev card.points with
  | (t, v) :: _ ->
      bpf "<circle class=\"dot\" cx=\"%.2f\" cy=\"%.2f\" r=\"2.5\"/>\n" (x t)
        (y v)
  | [] -> ());
  (* violation marks: critical dots with an accessible title *)
  List.iter
    (fun (v : Store.violation) ->
      bpf
        "<circle class=\"breach\" cx=\"%.2f\" cy=\"%.2f\" \
         r=\"4\"><title>breach t=%d: %s (bound %s) — %s</title></circle>\n"
        (x v.v_time) (y v.observed) v.v_time
        (Html.escape (full v.observed))
        (Html.escape (full v.bound))
        (Html.escape v.detail))
    card.marks;
  (* hover layer: oversized transparent hit targets with native tooltips *)
  if List.length card.points <= 600 then
    List.iter
      (fun (t, v) ->
        bpf
          "<circle class=\"hit\" cx=\"%.2f\" cy=\"%.2f\" \
           r=\"7\"><title>t=%d: %s</title></circle>\n"
          (x t) (y v) t
          (Html.escape (full v)))
      card.points;
  bpf "</svg>\n"

(* ------------------------------------------------------------------ *)
(* Session waterfall                                                   *)
(* ------------------------------------------------------------------ *)

(* The asynchronous engine's per-primitive latency pane: the latest
   [asim.lat.*] sample per primitive label, drawn as nested horizontal
   bars (max underneath, p99/p90/p50 on top) on one shared scale.  The
   pane renders only when a run recorded latency telemetry, so every
   document from a run without it keeps its historical bytes. *)

let lat_index series =
  match series with
  | "asim.lat.p50" -> Some 0
  | "asim.lat.p90" -> Some 1
  | "asim.lat.p99" -> Some 2
  | "asim.lat.max" -> Some 3
  | "asim.lat.timeouts" -> Some 4
  | _ -> None

let waterfall_rows cards =
  let rows = ref [] in
  List.iter
    (fun card ->
      match lat_index card.c_series with
      | None -> ()
      | Some idx -> (
        match List.assoc_opt "primitive" card.c_labels with
        | None -> ()
        | Some prim ->
          let rest =
            List.filter (fun (k, _) -> k <> "primitive") card.c_labels
          in
          let key = (rest, prim) in
          let last =
            match List.rev card.points with (_, v) :: _ -> v | [] -> 0.0
          in
          let cell =
            match List.assoc_opt key !rows with
            | Some c -> c
            | None ->
              let c = Array.make 5 0.0 in
              rows := (key, c) :: !rows;
              c
          in
          cell.(idx) <- last))
    cards;
  List.sort compare !rows

let waterfall_html buf rows =
  let bpf fmt = Printf.bprintf buf fmt in
  let scale =
    List.fold_left (fun acc (_, c) -> Float.max acc c.(3)) 0.0 rows
  in
  let scale = if scale > 0.0 then scale else 1.0 in
  let row_h = 30.0 and label_w = 150.0 and bar_w = 360.0 in
  let height = (row_h *. float_of_int (List.length rows)) +. 22.0 in
  bpf "<section class=\"card wf\">\n<header>\n<div>\n<h3>session waterfall</h3>\n";
  bpf
    "<p class=\"desc\">latest per-primitive sub-session makespans \
     (p50/p90/p99 over max, shared scale)</p>\n";
  bpf "</div>\n</header>\n";
  bpf
    "<svg viewBox=\"0 0 560 %.0f\" role=\"img\" aria-label=\"per-primitive \
     latency waterfall\">\n"
    height;
  List.iteri
    (fun i ((labels, prim), c) ->
      let y = row_h *. float_of_int i in
      let w v = bar_w *. (v /. scale) in
      bpf "<text class=\"wf-name\" x=\"0\" y=\"%.2f\">%s</text>\n" (y +. 14.0)
        (Html.escape prim);
      if labels <> [] then
        bpf "<text class=\"wf-sub\" x=\"0\" y=\"%.2f\">%s</text>\n" (y +. 25.0)
          (Html.escape (labels_text labels));
      let bar cls v =
        if v > 0.0 then
          bpf
            "<rect class=\"%s\" x=\"%.2f\" y=\"%.2f\" width=\"%.2f\" \
             height=\"14\"><title>%s %s: %s</title></rect>\n"
            cls label_w (y +. 4.0) (w v) cls (Html.escape prim)
            (Html.escape (full v))
      in
      bar "wf-max" c.(3);
      bar "wf-p99" c.(2);
      bar "wf-p90" c.(1);
      bar "wf-p50" c.(0);
      bpf "<text class=\"wf-val\" x=\"%.2f\" y=\"%.2f\">max %s</text>\n"
        (label_w +. w c.(3) +. 6.0)
        (y +. 15.0)
        (Html.escape (Html.short c.(3)));
      if c.(4) > 0.0 then
        bpf
          "<text class=\"wf-timeout\" x=\"%.2f\" y=\"%.2f\">&#9888; %.0f \
           timeouts</text>\n"
          (label_w +. 2.0) (y +. 27.0) c.(4))
    rows;
  bpf
    "<text class=\"tick\" x=\"%.2f\" y=\"%.2f\">0</text>\n\
     <text class=\"tick\" x=\"%.2f\" y=\"%.2f\" text-anchor=\"end\">%s delay \
     units</text>\n"
    label_w (height -. 6.0)
    (label_w +. bar_w)
    (height -. 6.0)
    (Html.escape (Html.short scale));
  bpf "</svg>\n</section>\n"

(* ------------------------------------------------------------------ *)
(* Cards and page                                                      *)
(* ------------------------------------------------------------------ *)

let summary_stats points =
  let values = List.map snd points in
  let n = List.length values in
  let sorted = List.sort compare values in
  let nth i = List.nth sorted i in
  match n with
  | 0 -> None
  | _ ->
      Some
        ( nth 0,
          nth ((n - 1) / 2),
          nth (n - 1),
          snd (List.nth points (n - 1)) )

let card_html buf card =
  let bpf fmt = Printf.bprintf buf fmt in
  bpf "<section class=\"card\">\n<header>\n<div>\n<h3>%s</h3>\n"
    (Html.escape card.c_series);
  bpf "<p class=\"labels\">%s · %s</p>\n"
    (Html.escape (labels_text card.c_labels))
    (Html.escape (Store.kind_name card.c_kind));
  (match Probe.describe card.c_series with
  | Some d -> bpf "<p class=\"desc\">%s</p>\n" (Html.escape d)
  | None -> ());
  bpf "</div>\n";
  (match summary_stats card.points with
  | Some (_, _, _, last) ->
      bpf "<p class=\"hero\">%s</p>\n" (Html.escape (Html.short last))
  | None -> ());
  bpf "</header>\n";
  chart buf card;
  (match summary_stats card.points with
  | Some (mn, md, mx, _) ->
      bpf
        "<p class=\"stats\"><span>min %s</span><span>p50 %s</span><span>max \
         %s</span><span>%d pts</span>"
        (Html.escape (Html.short mn))
        (Html.escape (Html.short md))
        (Html.escape (Html.short mx))
        (List.length card.points);
      if card.marks <> [] then
        bpf "<span class=\"crit\">&#10007; %d breaches</span>"
          (List.length card.marks);
      bpf "</p>\n"
  | None -> ());
  (* the table view: every chart readable without colour or hover *)
  bpf "<details><summary>data (%d points)</summary>\n<table>\n<tr><th \
       scope=\"col\">time</th><th scope=\"col\">value</th></tr>\n"
    (List.length card.points);
  let shown = ref 0 in
  List.iter
    (fun (t, v) ->
      if !shown < 1000 then begin
        incr shown;
        bpf "<tr><td>%d</td><td>%s</td></tr>\n" t (Html.escape (full v))
      end)
    card.points;
  if List.length card.points > 1000 then
    bpf "<tr><td colspan=\"2\">&hellip; truncated (full series in the JSONL \
         export)</td></tr>\n";
  bpf "</table>\n</details>\n</section>\n"

let style =
  Html.css_base
  ^ {css|h2 { font-size: 15px; margin: 28px 0 10px; }
h3 { font-size: 13px; font-weight: 600; margin: 0; }
.meta { color: var(--ink-2); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 8px; }
.tile { background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 12px 16px; min-width: 150px; }
.tile .k { color: var(--ink-2); font-size: 12px; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .v.crit { color: var(--critical); }
.tile .v.good { color: var(--good); }
.grid-cards { display: grid; gap: 14px;
  grid-template-columns: repeat(auto-fill, minmax(340px, 1fr)); }
.card { background: var(--surface-1); border: 1px solid var(--ring);
  border-radius: 8px; padding: 14px; }
.card header { display: flex; justify-content: space-between; gap: 10px;
  align-items: baseline; margin-bottom: 6px; }
.card .labels { color: var(--ink-2); font-size: 11px; margin: 2px 0 0; }
.card .desc { color: var(--muted); font-size: 11px; margin: 2px 0 0; }
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
.dot { fill: var(--series-1); }
.bound { fill: none; stroke: var(--critical); stroke-width: 1.5;
  stroke-dasharray: 5 4; }
.bound-label { fill: var(--ink-2); font-size: 10px; }
.breach { fill: var(--critical); stroke: var(--surface-1); stroke-width: 2; }
.hit { fill: transparent; }
.hit:hover { fill: var(--series-1); fill-opacity: 0.25; }
details { margin-top: 8px; }
summary { color: var(--ink-2); font-size: 12px; cursor: pointer; }
table { border-collapse: collapse; font-size: 12px; margin-top: 6px;
  font-variant-numeric: tabular-nums; }
th, td { text-align: left; padding: 3px 10px 3px 0;
  border-bottom: 1px solid var(--grid); }
th { color: var(--ink-2); font-weight: 600; }
.viol-table td.crit { color: var(--critical); font-weight: 600; }
.viol-table details.blame { margin-top: 0; }
.viol-table details.blame ul { margin: 4px 0 0; padding-left: 16px;
  font-size: 11px; color: var(--ink-2); font-variant-numeric: tabular-nums; }
.ok-line { color: var(--good); }
.card.wf { margin-bottom: 14px; }
.wf-name { fill: var(--ink); font-size: 12px; font-weight: 600; }
.wf-sub { fill: var(--muted); font-size: 10px; }
.wf-val { fill: var(--ink-2); font-size: 10px;
  font-variant-numeric: tabular-nums; }
.wf-timeout { fill: var(--critical); font-size: 10px; font-weight: 600; }
.wf-max { fill: var(--grid); }
.wf-p99 { fill: var(--series-1); fill-opacity: 0.35; }
.wf-p90 { fill: var(--series-1); fill-opacity: 0.6; }
.wf-p50 { fill: var(--series-1); }
|css}

let render ?(title = "nowlib invariant monitor") store =
  let buf = Buffer.create 65536 in
  let bpf fmt = Printf.bprintf buf fmt in
  let cards = group_cards store in
  let violations = Store.violations store in
  let n_samples = Store.n_samples store in
  let n_violations = List.length violations in
  Html.head buf ~title ~css:style;
  bpf "<h1>%s</h1>\n" (Html.escape title);
  bpf
    "<p class=\"meta\">deterministic time-series over the paper's safety \
     bounds · cadence %d · every number below is a pure function of the run's \
     seed</p>\n"
    (Store.cadence store);
  (* stat tiles: the headline numbers *)
  bpf "<div class=\"tiles\">\n";
  bpf
    "<div class=\"tile\"><div class=\"k\">samples</div><div \
     class=\"v\">%d</div></div>\n"
    n_samples;
  bpf
    "<div class=\"tile\"><div class=\"k\">series</div><div \
     class=\"v\">%d</div></div>\n"
    (List.length cards);
  if n_violations > 0 then
    bpf
      "<div class=\"tile\"><div class=\"k\">violations</div><div class=\"v \
       crit\">&#10007; %d</div></div>\n"
      n_violations
  else
    bpf
      "<div class=\"tile\"><div class=\"k\">violations</div><div class=\"v \
       good\">&#10003; 0</div></div>\n";
  bpf "</div>\n";
  bpf "<h2>Violations</h2>\n";
  if violations = [] then
    bpf
      "<p class=\"ok-line\">&#10003; no paper bound was breached at any \
       sample point.</p>\n"
  else begin
    bpf
      "<table class=\"viol-table\">\n<tr><th scope=\"col\"></th><th \
       scope=\"col\">time</th><th scope=\"col\">invariant</th><th \
       scope=\"col\">labels</th><th scope=\"col\">observed</th><th \
       scope=\"col\">bound</th><th scope=\"col\">detail</th><th \
       scope=\"col\">blame</th></tr>\n";
    List.iter
      (fun (v : Store.violation) ->
        bpf
          "<tr><td class=\"crit\">&#10007; breach</td><td>%d</td><td>%s</td>\
           <td>%s</td><td>%s</td><td>%s</td><td>%s</td>"
          v.v_time
          (Html.escape v.invariant)
          (Html.escape (labels_text v.v_labels))
          (Html.escape (full v.observed))
          (Html.escape (full v.bound))
          (Html.escape v.detail);
        (* the blame pane: the causal window behind a disclosure, so the
           table stays scannable while every breach carries its history *)
        bpf "<td><details class=\"blame\"><summary>%d event%s</summary><ul>\n"
          (List.length v.blame)
          (if List.length v.blame = 1 then "" else "s");
        List.iter
          (fun entry -> bpf "<li>%s</li>\n" (Html.escape entry))
          v.blame;
        bpf "</ul></details></td></tr>\n")
      violations;
    bpf "</table>\n"
  end;
  (match waterfall_rows cards with
  | [] -> ()
  | rows ->
    bpf "<h2>Session latency</h2>\n";
    waterfall_html buf rows);
  bpf "<h2>Series</h2>\n";
  if cards = [] then bpf "<p class=\"meta\">no samples recorded.</p>\n"
  else begin
    bpf "<div class=\"grid-cards\">\n";
    List.iter (card_html buf) cards;
    bpf "</div>\n"
  end;
  bpf "</body>\n</html>\n";
  Buffer.contents buf
