module Rng = Prng.Rng

type 'msg event =
  | Deliver of { src : int; dst : int; msg : 'msg }
  | Timer of (unit -> unit)

(* The virtual clock in an all-float record: stored flat, so advancing it
   allocates nothing (a float field of a mixed record is boxed on every
   write). *)
type clock = { mutable now : float }

type 'msg t = {
  nodes : (int, src:int -> 'msg -> unit) Hashtbl.t;
  queue : 'msg event Event_queue.t;
  clock : clock;
  delay : Delay.t;
  rng : Rng.t;
  (* Telemetry peaks (queue depth, undelivered messages): pure functions
     of the event stream, safe to export under the byte-identity gates. *)
  mutable queue_peak : int;
  mutable inflight : int;
  mutable inflight_peak : int;
  ledger : Metrics.Ledger.t;
}

let no_event = Timer ignore

let create ?ledger ~rng ~delay () =
  let ledger = match ledger with Some l -> l | None -> Metrics.Ledger.create () in
  {
    nodes = Hashtbl.create 64;
    queue = Event_queue.create ~dummy:no_event;
    clock = { now = 0.0 };
    delay;
    rng;
    queue_peak = 0;
    inflight = 0;
    inflight_peak = 0;
    ledger;
  }

let reset t =
  Hashtbl.clear t.nodes;
  Event_queue.clear t.queue;
  t.clock.now <- 0.0;
  t.queue_peak <- 0;
  t.inflight <- 0;
  t.inflight_peak <- 0

let[@inline] now t = t.clock.now

let add_node t ~id handler =
  if Hashtbl.mem t.nodes id then invalid_arg "Anet.add_node: id already in use";
  Hashtbl.add t.nodes id handler

let is_alive t id = Hashtbl.mem t.nodes id

let note_push t =
  let q = Event_queue.length t.queue in
  if q > t.queue_peak then t.queue_peak <- q

(* Queue, count in flight and trace one message; ledger charging is the
   caller's, so [multicast] can batch its charge — same split as the
   synchronous kernel's [send_uncharged]. *)
let send_uncharged t ~src ~dst ~label ~deviant msg =
  let d = Delay.sample t.delay t.rng ~src ~dst in
  Event_queue.push t.queue ~time:(t.clock.now +. d) (Deliver { src; dst; msg });
  note_push t;
  t.inflight <- t.inflight + 1;
  if t.inflight > t.inflight_peak then t.inflight_peak <- t.inflight;
  if Trace.net_detail () then begin
    let point kind =
      Trace.point
        ~attrs:[ ("dst", dst); ("src", src) ]
        ~time:(int_of_float t.clock.now) Trace.Net (kind ^ label)
    in
    if deviant then point "net.byz.";
    point "net.send."
  end

let check_sender t src =
  if not (is_alive t src) then invalid_arg "Anet.send: sender is not alive"

let send t ~src ~dst ?(label = "msg") ?(deviant = false) msg =
  check_sender t src;
  send_uncharged t ~src ~dst ~label ~deviant msg;
  Metrics.Ledger.charge t.ledger ~label ~messages:1 ~rounds:0

let multicast t ~src ~dsts ?except ?(label = "msg") msg =
  let n = ref 0 in
  List.iter
    (fun dst ->
      match except with
      | Some e when e = dst -> ()
      | Some _ | None ->
        if !n = 0 then check_sender t src;
        incr n;
        send_uncharged t ~src ~dst ~label ~deviant:false msg)
    dsts;
  if !n > 0 then Metrics.Ledger.charge t.ledger ~label ~messages:!n ~rounds:0

let at t ~time fn =
  Event_queue.push t.queue ~time (Timer fn);
  note_push t

let run ?until t =
  let q = t.queue in
  let limit = match until with None -> infinity | Some u -> u in
  while (not (Event_queue.is_empty q)) && Event_queue.next_time q <= limit do
    let time = Event_queue.next_time q in
    (* Clamp: a past-time push (delay 0 from a handler) delivers "now";
       the clock never goes backwards. *)
    if time > t.clock.now then t.clock.now <- time;
    match Event_queue.pop q with
    | Timer fn -> fn ()
    | Deliver { src; dst; msg } -> (
      t.inflight <- t.inflight - 1;
      match Hashtbl.find t.nodes dst with
      | handler -> handler ~src msg
      | exception Not_found -> () (* unknown destination: message lost *))
  done;
  match until with Some u when u > t.clock.now -> t.clock.now <- u | _ -> ()

let queue_peak t = t.queue_peak
let inflight_peak t = t.inflight_peak
