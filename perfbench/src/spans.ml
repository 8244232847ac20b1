(* The traced run's span store.  A span is one timed interval: a
   generator step (the root of its call tree) or one public library call
   made inside that step (a child).  Spans are kept in memory and only
   serialised by [write_jsonl] once the run is over, so writing never
   lands inside a measured interval. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  start : int;  (* ns, monotonic *)
  stop : int;
  parent : int;  (* id of the enclosing step span; -1 for a step span *)
  step : int;
}

type t = { mutable next : int; mutable rev : span list }

let create () = { next = 0; rev = [] }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let add t ~id ~name ~start ~stop ~parent ~step =
  t.rev <- { id; name; start; stop; parent; step } :: t.rev

let spans t = List.sort (fun a b -> compare a.id b.id) t.rev
let ms s = float_of_int (s.stop - s.start) *. 1e-6

(* Durations in ms of every child span called [name]. *)
let durations spans name =
  Array.of_list
    (List.filter_map
       (fun s -> if s.parent >= 0 && s.name = name then Some (ms s) else None)
       spans)

(* Nearest-rank percentile, [p] in (0, 1]; 0 for an empty sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  end

(* Share of step time not covered by the step's child spans.  Children of
   one step never overlap, because the generator makes one call at a time,
   so a step's self time is its duration minus its children's. *)
let step_self_share spans =
  let dur s = s.stop - s.start in
  let steps, children =
    List.fold_left
      (fun (steps, children) s ->
        if s.parent < 0 then (steps + dur s, children) else (steps, children + dur s))
      (0, 0) spans
  in
  if steps = 0 then 0.0 else float_of_int (steps - children) /. float_of_int steps

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"step\":%d}\n"
        s.id s.name s.start s.stop s.parent s.step)
    spans;
  close_out oc
