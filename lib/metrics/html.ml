let escape s =
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

let css_base =
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
|css}

let head buf ~title ~css =
  Printf.bprintf buf
    "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
     <meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">\n\
     <title>%s</title>\n<style>%s</style>\n</head>\n<body>\n"
    (escape title) css

type chart = { height : float; pad_b : float }

let width = 560.0
let pad_l = 50.0
let pad_r = 12.0
let pad_t = 10.0

let range values =
  let lo = List.fold_left min infinity values in
  let hi = List.fold_left max neg_infinity values in
  if hi > lo then (lo, hi) else (lo -. 0.5, hi +. 0.5)

let padded_range values =
  let lo, hi = range values in
  let span = hi -. lo in
  (lo -. (0.08 *. span), hi +. (0.08 *. span))

let x ~lo ~hi v =
  if hi = lo then pad_l +. ((width -. pad_l -. pad_r) /. 2.0)
  else
    pad_l
    +. (width -. pad_l -. pad_r) *. (float_of_int (v - lo) /. float_of_int (hi - lo))

let y c ~vlo ~vhi v =
  c.height -. c.pad_b
  -. ((c.height -. pad_t -. c.pad_b) *. ((v -. vlo) /. (vhi -. vlo)))

let open_svg buf c ~aria =
  Printf.bprintf buf "<svg viewBox=\"0 0 %.0f %.0f\" role=\"img\" aria-label=\"%s\">\n"
    width c.height (escape aria)

let frame buf c ~vlo ~vhi =
  let gridline v =
    let y = y c ~vlo ~vhi v in
    Printf.bprintf buf
      "<line class=\"grid\" x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\"/>\n\
       <text class=\"tick\" x=\"%.2f\" y=\"%.2f\" text-anchor=\"end\">%s</text>\n"
      pad_l y (width -. pad_r) y (pad_l -. 5.0) (y +. 3.0)
      (escape (short v))
  in
  gridline vhi;
  gridline ((vlo +. vhi) /. 2.0);
  Printf.bprintf buf
    "<line class=\"baseline\" x1=\"%.2f\" y1=\"%.2f\" x2=\"%.2f\" y2=\"%.2f\"/>\n" pad_l
    (c.height -. c.pad_b) (width -. pad_r) (c.height -. c.pad_b)
