module Config = Cluster.Config
module Valchan = Cluster.Valchan
module Randnum = Cluster.Randnum
module Walk = Cluster.Walk
module Exchange = Cluster.Exchange
module Rng = Prng.Rng
module Buckets = Metrics.Histogram.Buckets

(* randNum's two phases, int-coded so both primitives share one kernel. *)
let escrow = 0
let reveal = 1

type t = {
  cfg : Config.t;
  delay : Delay.t;
  rng : Rng.t;
  patience : float;
  (* The session's one kernel, reset at the start of every sub-session. *)
  net : int Anet.t;
  (* Sender id -> its position in the current sub-session's sender list;
     the tallies below are indexed by position. *)
  pos : (int, int) Hashtbl.t;
  (* randNum: arrival time of contributor [i]'s escrow / reveal at member
     [j], at [i * n + j]; [infinity] until it arrives. *)
  mutable escrow_at : float array;
  mutable reveal_at : float array;
  (* valChan: one first-vote tally per honest destination [d] over the
     [n] source members — [voted.(d * n + s)] per source, the distinct
     values and their counts at [d * n + 0 .. d * n + n_values.(d) - 1],
     and the time and value of the first strict majority ([infinity]
     while there is none). *)
  mutable voted : bool array;
  mutable values : int array;
  mutable counts : int array;
  mutable n_values : int array;
  mutable decided_at : float array;
  mutable verdict : int array;
  mutable clock : float;
  mutable timeouts : int;
  (* Telemetry: per-primitive-label makespan histograms and timeout
     tallies, plus kernel queue peaks folded in after each sub-session.
     All of it is a pure function of the session's event streams, so the
     monitor may export it under the byte-identity gates. *)
  lat : (string, Buckets.t) Hashtbl.t;
  lat_timeouts : (string, int) Hashtbl.t;
  mutable queue_peak : int;
  mutable inflight_peak : int;
}

let create ?(patience = 8.0) ~rng ~delay cfg =
  if patience <= 0.0 then invalid_arg "Session.create: patience must be positive";
  {
    cfg;
    delay;
    rng;
    patience;
    net = Anet.create ~ledger:(Config.ledger cfg) ~rng ~delay ();
    pos = Hashtbl.create 64;
    escrow_at = [||];
    reveal_at = [||];
    voted = [||];
    values = [||];
    counts = [||];
    n_values = [||];
    decided_at = [||];
    verdict = [||];
    clock = 0.0;
    timeouts = 0;
    lat = Hashtbl.create 8;
    lat_timeouts = Hashtbl.create 8;
    queue_peak = 0;
    inflight_peak = 0;
  }

let clock t = t.clock
let timeouts t = t.timeouts
let rng_cursor t = Rng.save t.rng
let timeout t = t.patience *. Delay.mean t.delay

(* Session bookkeeping shared by every primitive: add the sub-session's
   makespan to the running virtual clock, count deadline hits, and record
   the makespan into the label's latency histogram. *)
let account t ~label ~makespan ~timed_out =
  t.clock <- t.clock +. makespan;
  let h =
    match Hashtbl.find_opt t.lat label with
    | Some h -> h
    | None ->
      let h = Buckets.create () in
      Hashtbl.replace t.lat label h;
      h
  in
  Buckets.add h makespan;
  if timed_out then begin
    t.timeouts <- t.timeouts + 1;
    let c =
      match Hashtbl.find_opt t.lat_timeouts label with Some c -> c | None -> 0
    in
    Hashtbl.replace t.lat_timeouts label (c + 1)
  end

(* Start a sub-session on the session's kernel, with [members] as its
   indexed senders. *)
let start t members =
  Anet.reset t.net;
  Hashtbl.clear t.pos;
  List.iteri (fun i id -> Hashtbl.replace t.pos id i) members;
  t.net

(* Fold a finished sub-session's kernel queue peaks into the session. *)
let absorb_net t =
  if Anet.queue_peak t.net > t.queue_peak then t.queue_peak <- Anet.queue_peak t.net;
  if Anet.inflight_peak t.net > t.inflight_peak then
    t.inflight_peak <- Anet.inflight_peak t.net

(* [a] if it holds [len] cells, else a larger array: tallies grow to the
   largest sub-session seen and are then reused. *)
let fit a len fill =
  if Array.length a >= len then a else Array.make (max len (2 * Array.length a)) fill

let latency_labels t =
  Hashtbl.fold (fun l _ acc -> l :: acc) t.lat [] |> List.sort compare

let latency t ~label = Hashtbl.find_opt t.lat label

let timeouts_for t ~label =
  match Hashtbl.find_opt t.lat_timeouts label with Some c -> c | None -> 0

let latency_all t =
  Hashtbl.fold
    (fun _ h acc -> Buckets.merge acc h)
    t.lat
    (Buckets.create ())

let latency_p99 t =
  let all = latency_all t in
  if Buckets.count all = 0 then 0.0
  else Buckets.percentile all 99.0

let queue_peak t = t.queue_peak
let inflight_peak t = t.inflight_peak

let span_time t = int_of_float t.clock

(* valChan ---------------------------------------------------------- *)

(* The asynchronous validated channel: every source member's copies leave
   at virtual time 0 with per-link delays; each honest destination applies
   the majority rule to the votes that arrived by the session deadline.
   First arrival per sender wins (under zero delay, arrival order is send
   order, so verdicts coincide with the synchronous session's — the
   cross-validation test pins this).  Latency can only delay or suppress
   votes, never add them, so skew degrades liveness (no verdict by the
   deadline), never safety.

   Each honest destination tallies first votes as they arrive and stops
   at the first value to clear a strict majority: one vote per member
   means no other value can clear it later, so that value is the verdict
   [Valchan.validate] would give over the full on-time inbox, and its
   arrival is the destination's decision time. *)
let vote t ~n ~threshold ~d ~src value =
  if t.decided_at.(d) = infinity then
    match Hashtbl.find t.pos src with
    | exception Not_found -> ()
    | s ->
      let base = d * n in
      if not t.voted.(base + s) then begin
        t.voted.(base + s) <- true;
        let m = t.n_values.(d) in
        let k = ref 0 in
        while !k < m && t.values.(base + !k) <> value do
          incr k
        done;
        if !k = m then begin
          t.values.(base + m) <- value;
          t.counts.(base + m) <- 0;
          t.n_values.(d) <- m + 1
        end;
        let c = t.counts.(base + !k) + 1 in
        t.counts.(base + !k) <- c;
        if c > threshold then begin
          t.decided_at.(d) <- Anet.now t.net;
          t.verdict.(d) <- value
        end
      end

let valchan_session t ~src_cluster ~dst_cluster ~label ~payload =
  let cfg = t.cfg in
  let src_members = Config.members cfg src_cluster in
  let dst_members = Config.members cfg dst_cluster in
  let n = List.length src_members and n_dst = List.length dst_members in
  let threshold = n / 2 in
  let deadline = timeout t in
  let net = start t src_members in
  t.voted <- fit t.voted (n_dst * n) false;
  t.values <- fit t.values (n_dst * n) 0;
  t.counts <- fit t.counts (n_dst * n) 0;
  t.n_values <- fit t.n_values n_dst 0;
  t.decided_at <- fit t.decided_at n_dst infinity;
  t.verdict <- fit t.verdict n_dst 0;
  Array.fill t.voted 0 (n_dst * n) false;
  Array.fill t.n_values 0 n_dst 0;
  Array.fill t.decided_at 0 n_dst infinity;
  List.iteri
    (fun d id ->
      if Config.is_byzantine cfg id then Anet.add_node net ~id (fun ~src:_ _ -> ())
      else Anet.add_node net ~id (fun ~src value -> vote t ~n ~threshold ~d ~src value))
    dst_members;
  List.iter
    (fun id ->
      if not (Anet.is_alive net id) then Anet.add_node net ~id (fun ~src:_ _ -> ()))
    src_members;
  (* Same (source member, destination member) send order as the
     synchronous session, so Byzantine behaviour streams draw
     identically. *)
  List.iter
    (fun id ->
      match Config.byzantine cfg id with
      | None -> Anet.multicast net ~src:id ~dsts:dst_members ~label payload
      | Some strategy ->
        Valchan.corrupted_sends strategy ~src:id ~dsts:dst_members ~label ~payload
          (fun ~dst ~deviant v -> Anet.send net ~src:id ~dst ~label ~deviant v))
    src_members;
  Anet.run ~until:deadline net;
  (* Per honest destination: its verdict, and the time it reached a
     majority (the deadline when it never did). *)
  let timed_out = ref false and makespan = ref 0.0 and verdicts = ref [] in
  List.iteri
    (fun d id ->
      if not (Config.is_byzantine cfg id) then begin
        let at = t.decided_at.(d) in
        let decided = at < infinity in
        if not decided then timed_out := true;
        makespan := Float.max !makespan (if decided then at else deadline);
        verdicts := (id, if decided then Some t.verdict.(d) else None) :: !verdicts
      end)
    dst_members;
  let result = Valchan.summarise (List.rev !verdicts) in
  absorb_net t;
  account t ~label ~makespan:!makespan ~timed_out:!timed_out;
  (result, !makespan)

let transmit t ~src_cluster ~dst_cluster ?(label = "valchan") ~payload () =
  let ledger = Config.ledger t.cfg in
  Trace.with_span
    ~attrs:[ ("dst", dst_cluster); ("src", src_cluster) ]
    ~ledger ~time:(span_time t) Trace.Msg label
    (fun () -> valchan_session t ~src_cluster ~dst_cluster ~label ~payload)

(* randNum ---------------------------------------------------------- *)

(* The asynchronous commit/reveal coin.  Escrow shares leave at time 0;
   the reveal phase is cut by a timeout at half the session deadline (the
   phase boundary a synchronous round barrier provides for free).  A
   contribution counts iff a strict majority of the members received its
   escrow by the boundary and its reveal by the deadline — the in-cluster
   majority's view of "who participated", which late (straggling) shares
   fail, turning skew into a detected stall instead of a silent
   mis-sample. *)
let randnum_session t ~cluster ~range =
  let cfg = t.cfg in
  let members = Config.members cfg cluster in
  let n = List.length members in
  let secure = Randnum.secure cfg members in
  let deadline = timeout t in
  let boundary = 0.5 *. deadline in
  let net = start t members in
  t.escrow_at <- fit t.escrow_at (n * n) infinity;
  t.reveal_at <- fit t.reveal_at (n * n) infinity;
  let escrow_at = t.escrow_at and reveal_at = t.reveal_at in
  Array.fill escrow_at 0 (n * n) infinity;
  Array.fill reveal_at 0 (n * n) infinity;
  (* Contributions are drawn in member order, exactly like the synchronous
     session — same Config/behaviour stream consumption. *)
  let contributions : (int * int) list ref = ref [] in
  List.iteri
    (fun j id ->
      let contribution = Randnum.contribution cfg id in
      Anet.add_node net ~id (fun ~src phase ->
          match Hashtbl.find t.pos src with
          | exception Not_found -> ()
          | i ->
            let tbl = if phase = escrow then escrow_at else reveal_at in
            let k = (i * n) + j in
            if tbl.(k) = infinity then tbl.(k) <- Anet.now net);
      match contribution with
      | None -> ()
      | Some c ->
        contributions := (id, c) :: !contributions;
        Anet.multicast net ~src:id ~dsts:members ~except:id ~label:"randnum" escrow;
        Anet.at net ~time:boundary (fun () ->
            Anet.multicast net ~src:id ~dsts:members ~except:id ~label:"randnum" reveal))
    members;
  Anet.run ~until:deadline net;
  (* A share is reconstructible iff a strict majority of the members holds
     both halves on time (the contributor itself counts for its own
     share: it never sends to itself, so its own cell stays [infinity]). *)
  let on_time (tbl : float array) ~contributor ~(limit : float) =
    let held = ref 1 in
    for k = contributor * n to ((contributor + 1) * n) - 1 do
      if tbl.(k) <= limit then incr held
    done;
    !held
  in
  let included =
    List.filter
      (fun (id, _) ->
        let i = Hashtbl.find t.pos id in
        2 * on_time escrow_at ~contributor:i ~limit:boundary > n
        && 2 * on_time reveal_at ~contributor:i ~limit:deadline > n)
      !contributions
  in
  let outcome = Randnum.conclude ~secure ~n ~range included in
  (* The last on-time reveal of an included contribution (arrival times
     are never negative or NaN, so [>] is [Float.max]). *)
  let last_reveal acc (id, _) =
    let i = Hashtbl.find t.pos id in
    let last = ref acc in
    for k = i * n to ((i + 1) * n) - 1 do
      let at = reveal_at.(k) in
      if at <= deadline && at > !last then last := at
    done;
    !last
  in
  let stalled = outcome.Randnum.stalled in
  let makespan =
    if stalled then deadline else List.fold_left last_reveal 0.0 included
  in
  absorb_net t;
  account t ~label:"randnum" ~makespan ~timed_out:stalled;
  (outcome, makespan)

let randnum t ~cluster ~range =
  if range <= 0 then invalid_arg "Session.randnum: range must be positive";
  let members = Config.members t.cfg cluster in
  let n = List.length members in
  if n = 0 then invalid_arg "Session.randnum: empty cluster";
  let ledger = Config.ledger t.cfg in
  Trace.with_span
    ~attrs:[ ("cluster", cluster); ("size", n) ]
    ~ledger ~time:(span_time t) Trace.Msg "randnum"
    (fun () -> randnum_session t ~cluster ~range)

(* Composites ---------------------------------------------------------- *)

(* randCl and exchange are the synchronous engine's own code
   ([Walk.rand_cl_on], [Exchange.exchange_*_on]) run over these leaves:
   every draw and transfer is an asynchronous sub-session, bulk charges
   count no rounds, and spans are stamped with the virtual clock. *)
let leaves t =
  {
    Walk.randnum = (fun ~cluster ~range -> randnum t ~cluster ~range);
    transmit =
      (fun ~src_cluster ~dst_cluster ~label ~payload ->
        transmit t ~src_cluster ~dst_cluster ~label ~payload ());
    bulk_rounds = 0;
    span_time = (fun () -> span_time t);
  }

let rand_cl t ?duration ?max_restarts ?max_hop_retries ~start () =
  Walk.rand_cl_on (leaves t) ?duration ?max_restarts ?max_hop_retries t.cfg ~start

let exchange_node t ?duration ~node () =
  Exchange.exchange_node_on (leaves t) ?duration t.cfg ~node

let exchange_all t ?duration ~cluster () =
  Exchange.exchange_all_on (leaves t) ?duration t.cfg ~cluster
