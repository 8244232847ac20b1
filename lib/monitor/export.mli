(** Byte-deterministic serialisation of a monitor store.

    Both exporters render {!Store.samples} / {!Store.violations} — already
    in canonical order — with a fixed key order and the shared
    {!Store.float_repr} number format, so the same recorded data always
    yields the same bytes regardless of worker count or recording order
    (CI diffs the output across reruns and [-j] values).  JSON string
    literals go through {!Metrics.Json.add_string} and CSV fields through
    {!Metrics.Table.csv_escape}, the codecs every nowlib export shares. *)

val jsonl_string : Store.t -> string
(** One JSON object per line: every sample
    ([{"labels":…,"series":…,"time":…,"type":…,"value":…}] with [type]
    one of [gauge]/[counter]/[histogram]), then every violation
    ([{"blame":[…],"bound":…,"detail":…,"invariant":…,"labels":…,
    "observed":…,"time":…,"type":"violation"}] — [blame] is the causal
    window from {!Blame}), then a trailing
    [{"samples":…,"type":"meta","violations":…}] summary line.  Keys are
    emitted alphabetically. *)

val csv_string : Store.t -> string
(** Flat CSV with header
    [type,series,labels,time,value,bound,detail,blame]: samples first
    (empty [bound]/[detail]/[blame]), then violations (series column
    holds the invariant, value column the observed value, blame the
    [|]-joined causal window).  Labels are joined as [k=v;k=v] with
    [;]/[=]/[\] backslash-escaped inside keys and values; fields are
    then quoted by {!Metrics.Table.csv_escape} when needed. *)
