(** Digest-stream serialisation: sorted JSONL out, and back in.

    One JSON object per frame, one per line, object keys in alphabetical
    order ([digest], [labels], [step], [subsystem]), frames in the
    canonical [(labels, step, subsystem, digest)] order of
    {!Recorder.frames}, closed by one
    [{"format":1,"frames":N,"type":"meta"}] line — so the bytes are a
    pure function of the recorded frame set, byte-identical across
    [-j] values and reruns (CI-gated).  Label keys and values and
    subsystem names are written by {!Metrics.Json.add_string}, so any byte
    string survives.  {!of_jsonl} reads the same format back through
    {!Metrics.Json.parse} for file-vs-file bisection
    ([now_sim bisect --file-a]); it is the exact inverse:
    [of_jsonl (frames_to_jsonl fs) = Ok fs] for every frame list whose
    steps are below 2{^53} in magnitude (a larger step is refused, not
    rounded). *)

val frames_to_jsonl : Recorder.frame list -> string
(** Serialise an already-ordered frame list (plus the meta line). *)

val jsonl_string : Recorder.t -> string
(** [frames_to_jsonl (Recorder.frames r)] — the canonical export. *)

val of_jsonl : string -> (Recorder.frame list, string) result
(** Parse a digest stream written by {!jsonl_string}.  Meta lines and
    blank lines are skipped; key order is not significant on input.  An
    unknown key, a missing field, a non-integral [step] or a bad digest
    is an [Error] carrying the offending line number (counting from 1,
    blank lines included) and reason; no input raises. *)
