(* The traced run's GC lane, read in-process from OCaml 5's
   [runtime_events] ring.  Only the main domain's ring (ring 0, the
   generator's domain) is counted: minor collections stop every domain,
   so one ring sees each of them once, and every call the generator
   times runs on that domain.  A pause is one [EV_MINOR] or
   [EV_MAJOR_SLICE] interval.  Untraced runs never start the lane. *)

module RE = Runtime_events

type counts = {
  mutable minors : int;
  mutable major_slices : int;
  mutable pauses : float list;  (* ms *)
  mutable lost : int;
  mutable minor_begin : int64;  (* -1 when no minor collection is open *)
  mutable slice_begin : int64;
}

type t = { cursor : RE.cursor; callbacks : RE.Callbacks.t; c : counts }

let ns ts = RE.Timestamp.to_int64 ts

let callbacks c =
  let close began ts =
    c.pauses <- (Int64.to_float (Int64.sub (ns ts) began) *. 1e-6) :: c.pauses
  in
  RE.Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      if ring = 0 then
        match phase with
        | RE.EV_MINOR -> c.minor_begin <- ns ts
        | RE.EV_MAJOR_SLICE -> c.slice_begin <- ns ts
        | _ -> ())
    ~runtime_end:(fun ring ts phase ->
      if ring = 0 then
        match phase with
        | RE.EV_MINOR when c.minor_begin >= 0L ->
          c.minors <- c.minors + 1;
          close c.minor_begin ts;
          c.minor_begin <- -1L
        | RE.EV_MAJOR_SLICE when c.slice_begin >= 0L ->
          c.major_slices <- c.major_slices + 1;
          close c.slice_begin ts;
          c.slice_begin <- -1L
        | _ -> ())
    ~lost_events:(fun _ n -> c.lost <- c.lost + n)
    ()

let poll t = ignore (RE.read_poll t.cursor t.callbacks None)

let start () =
  RE.start ();
  RE.resume ();
  let c =
    { minors = 0; major_slices = 0; pauses = []; lost = 0; minor_begin = -1L; slice_begin = -1L }
  in
  let t = { cursor = RE.create_cursor None; callbacks = callbacks c; c } in
  (* Drain whatever the ring held before the lane started counting. *)
  poll t;
  c.minors <- 0;
  c.major_slices <- 0;
  c.pauses <- [];
  c.lost <- 0;
  t

let stop t =
  poll t;
  RE.pause ();
  RE.free_cursor t.cursor

let minors t = t.c.minors
let major_slices t = t.c.major_slices
let pauses t = Array.of_list t.c.pauses
let lost t = t.c.lost
