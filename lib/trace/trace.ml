(* Deterministic trace collector.  The load-bearing choices:

   - every event lands in the buffer of the task (submission index) that
     produced it, and Exec.par_map concatenates task buffers in submission
     order, so the stream never depends on scheduling;
   - the only global mutable state is the collector switch (one atomic
     bool) plus per-domain current-buffer slots (Domain.DLS), so an
     uninstrumented run pays a single atomic read per call site;
   - serialisation emits keys in a fixed sorted order, making the bytes a
     pure function of the event stream (the CI determinism gate diffs
     them across reruns and worker counts). *)

type layer = Net | Msg | State

let layer_name = function Net -> "net" | Msg -> "msg" | State -> "state"

type event =
  | Open of { name : string; layer : layer; time : int; attrs : (string * int) list }
  | Close of { messages : int; rounds : int; alloc : int }
  | Point of { name : string; layer : layer; time : int; attrs : (string * int) list }

(* ------------------------------------------------------------------ *)
(* Buffers                                                              *)
(* ------------------------------------------------------------------ *)

type buf = {
  mutable evs : event array;
  mutable len : int;
  mutable dropped : int;
  mutable cur_time : int;  (* inherited by events that carry no ?time *)
  (* Rotating window over the most recent pushes (the flight-recorder
     ring): written on every push, including events past [cap_limit], so
     the tail survives even when the main buffer saturates. *)
  ring : event array;
  mutable ring_n : int;  (* total events ever pushed to this buffer *)
}

let dummy_event = Close { messages = 0; rounds = 0; alloc = 0 }

let ring_capacity = 256

let new_buf ~cur_time () =
  {
    evs = [||];
    len = 0;
    dropped = 0;
    cur_time;
    ring = Array.make ring_capacity dummy_event;
    ring_n = 0;
  }

(* Collector switch and configuration.  [on] is the only thing read on the
   fast path; [capacity]/[detail] are written once by [start], before any
   traced work runs (and before any worker domain that could observe them
   is spawned — Domain.spawn synchronises), so plain refs suffice. *)
let on = Atomic.make false

let cap_limit = ref (1 lsl 20)

let detail = ref false

(* GC/allocation accounting is opt-in (--profile-alloc): when off, every
   Close carries alloc = 0 and the serialisers omit the alloc keys, so an
   unprofiled trace's bytes are unchanged.  Caller-domain allocation is
   measured with Gc.allocated_bytes deltas — domain-local, so a span's
   delta is exactly what the span's own code allocated. *)
let alloc_on = ref false

let root : buf option ref = ref None

let key : buf option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let active () = Atomic.get on

let net_detail () = Atomic.get on && !detail

let push b ev =
  b.ring.(b.ring_n mod ring_capacity) <- ev;
  b.ring_n <- b.ring_n + 1;
  if b.len >= !cap_limit then b.dropped <- b.dropped + 1
  else begin
    if b.len = Array.length b.evs then begin
      let cap = max 256 (min !cap_limit (2 * Array.length b.evs)) in
      let evs = Array.make cap dummy_event in
      Array.blit b.evs 0 evs 0 b.len;
      b.evs <- evs
    end;
    b.evs.(b.len) <- ev;
    b.len <- b.len + 1
  end

let current () = match Domain.DLS.get key with Some _ as b -> b | None -> None

(* The flight-recorder read: the last [ring_capacity] events pushed to the
   calling task's buffer, oldest first.  Per-buffer (task-local), so a
   reader inside an [Exec] task sees exactly its own cell's tail — the
   contents never depend on scheduling or worker count.  Read-only: safe
   under the zero-perturbation contract. *)
let recent () =
  if not (Atomic.get on) then []
  else
    match current () with
    | None -> []
    | Some b ->
      let n = min b.ring_n ring_capacity in
      List.init n (fun i -> b.ring.((b.ring_n - n + i) mod ring_capacity))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                            *)
(* ------------------------------------------------------------------ *)

let start ?(capacity = 1 lsl 20) ?(net_detail = false) ?(profile_alloc = false) () =
  if Atomic.get on then invalid_arg "Trace.start: a collector is already active";
  if capacity < 1 then invalid_arg "Trace.start: capacity must be positive";
  let b = new_buf ~cur_time:0 () in
  cap_limit := capacity;
  detail := net_detail;
  alloc_on := profile_alloc;
  root := Some b;
  Domain.DLS.set key (Some b);
  Atomic.set on true

type dump = { events : event list; dropped : int }

let stop () =
  if not (Atomic.get on) then invalid_arg "Trace.stop: no collector is active";
  Atomic.set on false;
  let b = match !root with Some b -> b | None -> assert false in
  root := None;
  Domain.DLS.set key None;
  detail := false;
  alloc_on := false;
  let events = Array.to_list (Array.sub b.evs 0 b.len) in
  { events; dropped = b.dropped }

(* ------------------------------------------------------------------ *)
(* Emission                                                             *)
(* ------------------------------------------------------------------ *)

let point ?(attrs = []) ?time layer name =
  if Atomic.get on then
    match current () with
    | None -> ()
    | Some b ->
      let time = match time with Some t -> t | None -> b.cur_time in
      push b (Point { name; layer; time; attrs })

let with_span ?(attrs = []) ?ledger ?time layer name f =
  if not (Atomic.get on) then f ()
  else
    match current () with
    | None -> f ()
    | Some b ->
      let time = match time with Some t -> t | None -> b.cur_time in
      let saved_time = b.cur_time in
      b.cur_time <- time;
      let snap = Option.map Metrics.Ledger.snapshot ledger in
      let alloc0 = if !alloc_on then Gc.allocated_bytes () else 0.0 in
      push b (Open { name; layer; time; attrs });
      let close () =
        let messages, rounds =
          match (ledger, snap) with
          | Some l, Some s ->
            let d = Metrics.Ledger.since l s in
            (d.Metrics.Ledger.messages, d.Metrics.Ledger.rounds)
          | _ -> (0, 0)
        in
        let alloc =
          if !alloc_on then int_of_float (Gc.allocated_bytes () -. alloc0)
          else 0
        in
        push b (Close { messages; rounds; alloc });
        b.cur_time <- saved_time
      in
      (match f () with
      | v ->
        close ();
        v
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close ();
        Printexc.raise_with_backtrace e bt)

(* ------------------------------------------------------------------ *)
(* Scheduler integration                                                *)
(* ------------------------------------------------------------------ *)

let task_buf () =
  (* Inherit the creator's logical clock so that a point emitted early in
     the task resolves its default time exactly as the sequential run
     would (the creator is the par_map caller). *)
  let cur_time = match current () with Some b -> b.cur_time | None -> 0 in
  new_buf ~cur_time ()

let run_in_buf b f =
  let saved = Domain.DLS.get key in
  Domain.DLS.set key (Some b);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key saved) f

let merge bufs =
  if Atomic.get on then
    match current () with
    | None -> ()
    | Some target ->
      Array.iter
        (fun tb ->
          for i = 0 to tb.len - 1 do
            push target tb.evs.(i)
          done;
          target.dropped <- target.dropped + tb.dropped)
        bufs

(* ------------------------------------------------------------------ *)
(* Span reconstruction                                                  *)
(* ------------------------------------------------------------------ *)

type span = {
  seq : int;
  depth : int;
  name : string;
  layer : layer;
  time : int;
  attrs : (string * int) list;
  end_seq : int;
  messages : int;
  rounds : int;
  alloc : int;
  self_messages : int;
  self_rounds : int;
  self_alloc : int;
}

type item =
  | Span of span
  | Mark of {
      seq : int;
      depth : int;
      name : string;
      layer : layer;
      time : int;
      attrs : (string * int) list;
    }

type partial = {
  p_seq : int;
  p_depth : int;
  p_name : string;
  p_layer : layer;
  p_time : int;
  p_attrs : (string * int) list;
  mutable p_child_messages : int;
  mutable p_child_rounds : int;
  mutable p_child_alloc : int;
}

let items dump =
  let out = ref [] in
  let stack = ref [] in
  let close_span p ~seq ~end_seq ~messages ~rounds ~alloc =
    (match !stack with
    | parent :: _ ->
      parent.p_child_messages <- parent.p_child_messages + messages;
      parent.p_child_rounds <- parent.p_child_rounds + rounds;
      parent.p_child_alloc <- parent.p_child_alloc + alloc
    | [] -> ());
    ignore seq;
    out :=
      Span
        {
          seq = p.p_seq;
          depth = p.p_depth;
          name = p.p_name;
          layer = p.p_layer;
          time = p.p_time;
          attrs = p.p_attrs;
          end_seq;
          messages;
          rounds;
          alloc;
          self_messages = messages - p.p_child_messages;
          self_rounds = rounds - p.p_child_rounds;
          self_alloc = alloc - p.p_child_alloc;
        }
      :: !out
  in
  let seq = ref 0 in
  List.iter
    (fun ev ->
      (match ev with
      | Open { name; layer; time; attrs } ->
        stack :=
          {
            p_seq = !seq;
            p_depth = List.length !stack;
            p_name = name;
            p_layer = layer;
            p_time = time;
            p_attrs = attrs;
            p_child_messages = 0;
            p_child_rounds = 0;
            p_child_alloc = 0;
          }
          :: !stack
      | Close { messages; rounds; alloc } ->
        (match !stack with
        | [] -> () (* unmatched close: dropped *)
        | p :: rest ->
          stack := rest;
          close_span p ~seq:!seq ~end_seq:(!seq + 1) ~messages ~rounds ~alloc)
      | Point { name; layer; time; attrs } ->
        out :=
          Mark { seq = !seq; depth = List.length !stack; name; layer; time; attrs }
          :: !out);
      incr seq)
    dump.events;
  (* Spans left open (an exception unwound past a site, or the ring filled
     up and swallowed the Close): close them at end-of-stream, zero delta. *)
  let rec drain () =
    match !stack with
    | [] -> ()
    | p :: rest ->
      stack := rest;
      close_span p ~seq:!seq ~end_seq:!seq ~messages:0 ~rounds:0 ~alloc:0;
      drain ()
  in
  drain ();
  List.sort (fun a b ->
      let seq_of = function Span s -> s.seq | Mark m -> m.seq in
      compare (seq_of a) (seq_of b))
    !out

(* ------------------------------------------------------------------ *)
(* Serialisation                                                        *)
(* ------------------------------------------------------------------ *)

let json_string = Metrics.Json.quote

let attrs_json attrs =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) attrs in
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "%s:%d" (json_string k) v) sorted)
  ^ "}"

let to_jsonl dump =
  let b = Buffer.create 4096 in
  List.iter
    (fun item ->
      (match item with
      | Span s ->
        (* The alloc keys appear only on profiled spans (alloc <> 0), so
           unprofiled traces keep their historical bytes; keys stay in
           sorted order either way. *)
        if s.alloc = 0 && s.self_alloc = 0 then
          Buffer.add_string b
            (Printf.sprintf
               "{\"attrs\":%s,\"depth\":%d,\"end\":%d,\"kind\":\"span\",\"layer\":%s,\
                \"msgs\":%d,\"name\":%s,\"rounds\":%d,\"self_msgs\":%d,\
                \"self_rounds\":%d,\"seq\":%d,\"time\":%d}"
               (attrs_json s.attrs) s.depth s.end_seq
               (json_string (layer_name s.layer))
               s.messages (json_string s.name) s.rounds s.self_messages s.self_rounds
               s.seq s.time)
        else
          Buffer.add_string b
            (Printf.sprintf
               "{\"alloc\":%d,\"attrs\":%s,\"depth\":%d,\"end\":%d,\"kind\":\"span\",\
                \"layer\":%s,\"msgs\":%d,\"name\":%s,\"rounds\":%d,\"self_alloc\":%d,\
                \"self_msgs\":%d,\"self_rounds\":%d,\"seq\":%d,\"time\":%d}"
               s.alloc (attrs_json s.attrs) s.depth s.end_seq
               (json_string (layer_name s.layer))
               s.messages (json_string s.name) s.rounds s.self_alloc
               s.self_messages s.self_rounds s.seq s.time)
      | Mark m ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"attrs\":%s,\"depth\":%d,\"kind\":\"point\",\"layer\":%s,\"name\":%s,\
              \"seq\":%d,\"time\":%d}"
             (attrs_json m.attrs) m.depth
             (json_string (layer_name m.layer))
             (json_string m.name) m.seq m.time));
      Buffer.add_char b '\n')
    (items dump);
  if dump.dropped > 0 then
    Buffer.add_string b (Printf.sprintf "{\"dropped\":%d,\"kind\":\"meta\"}\n" dump.dropped);
  Buffer.contents b

let to_chrome dump =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun item ->
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b "\n  ";
      match item with
      | Span s ->
        let args =
          ("msgs", s.messages) :: ("rounds", s.rounds) :: ("time", s.time)
          :: (if s.alloc = 0 then s.attrs else ("alloc", s.alloc) :: s.attrs)
        in
        Buffer.add_string b
          (Printf.sprintf
             "{\"args\":%s,\"cat\":%s,\"dur\":%d,\"name\":%s,\"ph\":\"X\",\"pid\":0,\
              \"tid\":0,\"ts\":%d}"
             (attrs_json args)
             (json_string (layer_name s.layer))
             (max 1 (s.end_seq - s.seq))
             (json_string s.name) s.seq)
      | Mark m ->
        Buffer.add_string b
          (Printf.sprintf
             "{\"args\":%s,\"cat\":%s,\"name\":%s,\"ph\":\"i\",\"pid\":0,\"s\":\"t\",\
              \"tid\":0,\"ts\":%d}"
             (attrs_json (("time", m.time) :: m.attrs))
             (json_string (layer_name m.layer))
             (json_string m.name) m.seq))
    (items dump);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Profiling                                                            *)
(* ------------------------------------------------------------------ *)

module Report = struct
  type agg = {
    mutable spans : int;
    mutable messages : int;
    mutable rounds : int;
    mutable self_messages : int;
    mutable self_rounds : int;
    mutable alloc : int;
    mutable self_alloc : int;
    round_samples : Metrics.Histogram.Samples.t;
  }

  type t = { by_primitive : (layer * string, agg) Hashtbl.t; points : int }

  let of_dump dump =
    let by_primitive = Hashtbl.create 32 in
    let points = ref 0 in
    List.iter
      (fun item ->
        match item with
        | Mark _ -> incr points
        | Span s ->
          let agg =
            match Hashtbl.find_opt by_primitive (s.layer, s.name) with
            | Some a -> a
            | None ->
              let a =
                {
                  spans = 0;
                  messages = 0;
                  rounds = 0;
                  self_messages = 0;
                  self_rounds = 0;
                  alloc = 0;
                  self_alloc = 0;
                  round_samples = Metrics.Histogram.Samples.create ();
                }
              in
              Hashtbl.add by_primitive (s.layer, s.name) a;
              a
          in
          agg.spans <- agg.spans + 1;
          agg.messages <- agg.messages + s.messages;
          agg.rounds <- agg.rounds + s.rounds;
          agg.self_messages <- agg.self_messages + s.self_messages;
          agg.self_rounds <- agg.self_rounds + s.self_rounds;
          agg.alloc <- agg.alloc + s.alloc;
          agg.self_alloc <- agg.self_alloc + s.self_alloc;
          Metrics.Histogram.Samples.add_int agg.round_samples s.rounds)
      (items dump);
    { by_primitive; points = !points }

  (* Primitives ranked by the traffic they themselves generate (total
     minus children), heaviest first; ties resolved by layer then name so
     the order is deterministic. *)
  let ranked t =
    Hashtbl.fold (fun k a acc -> (k, a) :: acc) t.by_primitive []
    |> List.sort (fun ((l1, n1), a) ((l2, n2), b) ->
           match compare b.self_messages a.self_messages with
           | 0 -> compare (layer_name l1, n1) (layer_name l2, n2)
           | c -> c)

  (* [Samples.percentile] is nan on an empty store; report 0 instead so a
     primitive with no closed spans still renders as a finite row. *)
  let round_percentile a p =
    if Metrics.Histogram.Samples.count a.round_samples = 0 then 0.0
    else Metrics.Histogram.Samples.percentile a.round_samples p

  (* The alloc columns render only when some span carried an allocation
     delta (a --profile-alloc run): unprofiled reports keep their
     historical column set and bytes. *)
  let has_alloc t =
    Hashtbl.fold (fun _ a acc -> acc || a.alloc <> 0 || a.self_alloc <> 0)
      t.by_primitive false

  let table t =
    let with_alloc = has_alloc t in
    let table =
      Metrics.Table.create ~title:"per-primitive profile (by self messages)"
        ~columns:
          ([
             "primitive"; "layer"; "spans"; "msgs"; "self msgs"; "rounds";
             "self rounds"; "p50 rounds"; "p95 rounds";
           ]
          @ if with_alloc then [ "alloc B"; "self alloc B" ] else [])
    in
    List.iter
      (fun ((layer, name), a) ->
        Metrics.Table.add_row table
          ([
             Metrics.Table.S name;
             Metrics.Table.S (layer_name layer);
             Metrics.Table.I a.spans;
             Metrics.Table.I a.messages;
             Metrics.Table.I a.self_messages;
             Metrics.Table.I a.rounds;
             Metrics.Table.I a.self_rounds;
             Metrics.Table.F2 (round_percentile a 50.0);
             Metrics.Table.F2 (round_percentile a 95.0);
           ]
          @
          if with_alloc then
            [ Metrics.Table.I a.alloc; Metrics.Table.I a.self_alloc ]
          else []))
      (ranked t);
    table

  let table_rows t =
    List.map
      (fun ((_, name), a) -> (name, a.spans, a.self_messages, a.self_rounds))
      (ranked t)

  let render ?(top = 3) t =
    let b = Buffer.create 1024 in
    Buffer.add_string b (Metrics.Table.render (table t));
    let rec take n = function
      | x :: rest when n > 0 -> x :: take (n - 1) rest
      | _ -> []
    in
    List.iter
      (fun ((layer, name), a) ->
        (* n = 1 renders too: a single observation is still a (degenerate)
           distribution; only a truly empty series is skipped. *)
        if Metrics.Histogram.Samples.count a.round_samples > 0 then begin
          Buffer.add_string b
            (Printf.sprintf "\nround-latency histogram: %s [%s]\n" name
               (layer_name layer));
          Buffer.add_string b
            (Format.asprintf "%a" (Metrics.Histogram.Samples.pp ~bins:12)
               a.round_samples)
        end)
      (take top (ranked t));
    Buffer.contents b
end

let profiled ?capacity ?net_detail ?profile_alloc f =
  start ?capacity ?net_detail ?profile_alloc ();
  match f () with
  | v -> (v, stop ())
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (stop ());
    Printexc.raise_with_backtrace e bt
