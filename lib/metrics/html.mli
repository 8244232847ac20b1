(** What the two self-contained HTML reports share: the monitor's
    dashboard ([Monitor.Dashboard]) and scripts/bench_report's bench
    history.  Both embed their styles and draw inline SVG charts with no
    scripts or external assets; every coordinate is printed ["%.2f"], so
    a document's bytes depend only on the data it draws. *)

val escape : string -> string
(** Escape ampersands, angle brackets and double quotes for HTML text
    and attribute values. *)

val short : float -> string
(** A number as printed on ticks and cards: ["%.4g"]. *)

val css_base : string
(** The opening rules of both stylesheets: the light and dark palettes,
    the box model, [body] and [h1]; each report appends its own rules. *)

val head : Buffer.t -> title:string -> css:string -> unit
(** The document up to and including [<body>]: doctype, charset,
    viewport, the escaped [title] and the [css] stylesheet. *)

(** {2 Charts}

    A chart is 560 units wide, with 50 units of padding on the left
    (for tick labels), 12 on the right and 10 on top. *)

type chart = { height : float; pad_b : float }
(** The chart's height and its bottom padding (room for the x labels). *)

val width : float
(** Chart width, 560. *)

val pad_l : float
(** Left padding, 50. *)

val pad_r : float
(** Right padding, 12. *)

val range : float list -> float * float
(** The values' minimum and maximum, widened by 0.5 on each side when
    they are equal. *)

val padded_range : float list -> float * float
(** {!range}, widened by 8 % of its span on each side. *)

val x : lo:int -> hi:int -> int -> float
(** Horizontal position of [v] on an axis from [lo] (left edge of the
    plot) to [hi] (right edge); the centre when [lo = hi]. *)

val y : chart -> vlo:float -> vhi:float -> float -> float
(** Vertical position of [v] on a scale from [vlo] (the baseline) to
    [vhi] (the top of the plot). *)

val open_svg : Buffer.t -> chart -> aria:string -> unit
(** The chart's [<svg>] tag, labelled by the escaped [aria]. *)

val frame : Buffer.t -> chart -> vlo:float -> vhi:float -> unit
(** The recessive frame: gridlines with tick labels at [vhi] and at the
    midpoint, then the baseline. *)
