module Config = Cluster.Config
module Valchan = Cluster.Valchan
module Randnum = Cluster.Randnum
module Walk = Cluster.Walk
module Exchange = Cluster.Exchange
module Rng = Prng.Rng
module Buckets = Metrics.Histogram.Buckets

type t = {
  cfg : Config.t;
  delay : Delay.t;
  rng : Rng.t;
  patience : float;
  (* randNum: the members by position, and the arrival time of
     contributor [i]'s escrow / reveal at member [j], at [i * n + j];
     [infinity] unless it arrives by the deadline. *)
  mutable ids : int array;
  mutable escrow_at : float array;
  mutable reveal_at : float array;
  (* valChan: the destinations by position; per destination [d] and
     source position [s], at [d * n + s], the arrival and value of the
     copy from [s] that [d] receives first by the deadline ([infinity]
     while none has); and one destination's tally: its voting sources in
     delivery order, the distinct values and their counts. *)
  mutable dsts : int array;
  mutable vote_at : float array;
  mutable vote_value : int array;
  mutable order : int array;
  mutable values : int array;
  mutable counts : int array;
  mutable clock : float;
  mutable timeouts : int;
  (* Telemetry: per-primitive-label makespan histograms and timeout
     tallies, plus the queue peaks of each sub-session.  All of it is a
     pure function of the session's draws, so the monitor may export it
     under the byte-identity gates. *)
  lat : (string, Buckets.t) Hashtbl.t;
  lat_timeouts : (string, int) Hashtbl.t;
  mutable queue_peak : int;
  mutable inflight_peak : int;
}

let create ?(patience = 8.0) ~rng ~delay cfg =
  if not (patience > 0.0 && Float.is_finite patience) then
    invalid_arg "Session.create: patience must be positive and finite";
  {
    cfg;
    delay;
    rng;
    patience;
    ids = [||];
    escrow_at = [||];
    reveal_at = [||];
    dsts = [||];
    vote_at = [||];
    vote_value = [||];
    order = [||];
    values = [||];
    counts = [||];
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

(* Fold a sub-session's queue peaks into the session's. *)
let note_peaks t ~queue ~inflight =
  if queue > t.queue_peak then t.queue_peak <- queue;
  if inflight > t.inflight_peak then t.inflight_peak <- inflight

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

(* The net-detail points of one copy, as the reference kernel emits them:
   [net.byz.<label>] first when the copy deviates, then
   [net.send.<label>], stamped with the send time. *)
let trace_copy ~time ~src ~dst ~label ~deviant =
  let point kind =
    Trace.point ~attrs:[ ("dst", dst); ("src", src) ] ~time Trace.Net (kind ^ label)
  in
  if deviant then point "net.byz.";
  point "net.send."

(* The asynchronous validated channel: every source member's copies leave
   at virtual time 0 with per-link delays; each honest destination applies
   the majority rule to the votes that arrived by the session deadline.
   First arrival per sender wins (under zero delay, arrival order is send
   order, so verdicts coincide with the synchronous session's — the
   cross-validation test pins this).  Latency can only delay or suppress
   votes, never add them, so skew degrades liveness (no verdict by the
   deadline), never safety.

   No delivery sends anything, so no event queue runs: each copy's
   arrival is one delay draw, drawn in the kernel's send order (sources
   in member order, then destinations), and each honest destination
   tallies its sources' first copies in the order a [(time, seq)] queue
   would deliver them: by arrival, ties in send order, which is source
   order.  The tally stops at the first value to clear a strict majority:
   one vote per member means no other value can clear it later, so that
   value is the verdict [Valchan.validate] would give over the full
   on-time inbox, and its arrival is the destination's decision time. *)
let valchan_session t ~src_cluster ~dst_cluster ~label ~payload =
  let cfg = t.cfg in
  let src_members = Config.members cfg src_cluster in
  let dst_members = Config.members cfg dst_cluster in
  let n = List.length src_members and m = List.length dst_members in
  let threshold = n / 2 in
  let deadline = timeout t in
  t.dsts <- fit t.dsts m 0;
  t.vote_at <- fit t.vote_at (m * n) infinity;
  t.vote_value <- fit t.vote_value (m * n) 0;
  t.order <- fit t.order n 0;
  t.values <- fit t.values n 0;
  t.counts <- fit t.counts n 0;
  let dsts = t.dsts and vote_at = t.vote_at and vote_value = t.vote_value in
  List.iteri (fun d id -> dsts.(d) <- id) dst_members;
  Array.fill vote_at 0 (m * n) infinity;
  let sent = ref 0 and detail = Trace.net_detail () in
  (* One copy from source position [s] to [dst], which sits at position
     [d] among the destinations ([-1] outside them): draw its delay, and
     keep it if it reaches the destination by the deadline strictly
     before every earlier copy from [s] — the copy a queue delivers
     first. *)
  let copy ~s ~src ~dst ~d ~deviant value =
    incr sent;
    let at = 0.0 +. Delay.sample t.delay t.rng ~src ~dst in
    if detail then trace_copy ~time:0 ~src ~dst ~label ~deviant;
    if d >= 0 && at <= deadline then begin
      let k = (d * n) + s in
      if at < vote_at.(k) then begin
        vote_at.(k) <- at;
        vote_value.(k) <- value
      end
    end
  in
  (* [dst]'s position among the sorted destinations, [-1] for a redirect
     sink outside them. *)
  let rec position dst lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if dsts.(mid) = dst then mid
      else if dsts.(mid) < dst then position dst (mid + 1) hi
      else position dst lo mid
  in
  List.iteri
    (fun s src ->
      match Config.byzantine cfg src with
      | None ->
        for d = 0 to m - 1 do
          copy ~s ~src ~dst:dsts.(d) ~d ~deviant:false payload
        done
      | Some strategy ->
        Valchan.corrupted_sends strategy ~src ~dsts:dst_members ~label ~payload
          (fun ~dst ~deviant v -> copy ~s ~src ~dst ~d:(position dst 0 m) ~deviant v))
    src_members;
  if !sent > 0 then
    Metrics.Ledger.charge (Config.ledger cfg) ~label ~messages:!sent ~rounds:0;
  (* Every copy is queued before the first delivery. *)
  note_peaks t ~queue:!sent ~inflight:!sent;
  let order = t.order and values = t.values and counts = t.counts in
  (* Destination [d]'s first-vote tally: its voting sources sorted by
     arrival (an insertion sort that moves only strictly later arrivals,
     so ties stay in source order), then counted until a value clears a
     strict majority.  Returns that vote's cell, or [-1]. *)
  let decide d =
    let base = d * n and len = ref 0 in
    for s = 0 to n - 1 do
      let at = vote_at.(base + s) in
      if at < infinity then begin
        let p = ref !len in
        while !p > 0 && vote_at.(base + order.(!p - 1)) > at do
          order.(!p) <- order.(!p - 1);
          decr p
        done;
        order.(!p) <- s;
        incr len
      end
    done;
    let n_values = ref 0 and decided = ref (-1) and i = ref 0 in
    while !decided < 0 && !i < !len do
      let k = base + order.(!i) in
      let value = vote_value.(k) in
      let v = ref 0 in
      while !v < !n_values && values.(!v) <> value do
        incr v
      done;
      if !v = !n_values then begin
        values.(!v) <- value;
        counts.(!v) <- 0;
        incr n_values
      end;
      counts.(!v) <- counts.(!v) + 1;
      if counts.(!v) > threshold then decided := k;
      incr i
    done;
    !decided
  in
  (* Per honest destination: its verdict, and the time it reached a
     majority (the deadline when it never did). *)
  let timed_out = ref false and makespan = ref 0.0 and verdicts = ref [] in
  for d = 0 to m - 1 do
    if not (Config.is_byzantine cfg dsts.(d)) then begin
      let k = decide d in
      let verdict =
        if k < 0 then begin
          timed_out := true;
          makespan := Float.max !makespan deadline;
          None
        end
        else begin
          makespan := Float.max !makespan vote_at.(k);
          Some vote_value.(k)
        end
      in
      verdicts := (dsts.(d), verdict) :: !verdicts
    end
  done;
  let result = Valchan.summarise (List.rev !verdicts) in
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
   mis-sample.

   No delivery sends anything, so no event queue runs: escrows leave at 0
   and reveals at the boundary, each arriving one delay draw later.  The
   draws follow the kernel's order: contributions and escrows interleaved
   in member order, then the reveals in contributor order, the order in
   which the boundary timers fire. *)
let randnum_session t ~cluster ~range =
  let cfg = t.cfg in
  let members = Config.members cfg cluster in
  let n = List.length members in
  let secure = Randnum.secure cfg members in
  let deadline = timeout t in
  let boundary = 0.5 *. deadline in
  t.ids <- fit t.ids n 0;
  t.escrow_at <- fit t.escrow_at (n * n) infinity;
  t.reveal_at <- fit t.reveal_at (n * n) infinity;
  let ids = t.ids and escrow_at = t.escrow_at and reveal_at = t.reveal_at in
  List.iteri (fun j id -> ids.(j) <- id) members;
  Array.fill escrow_at 0 (n * n) infinity;
  Array.fill reveal_at 0 (n * n) infinity;
  let ledger = Config.ledger cfg and detail = Trace.net_detail () in
  (* Member [i]'s share to every other member, sent at [time]: each copy
     that arrives by the deadline lands in [tbl]. *)
  let multicast tbl ~time i =
    let src = ids.(i) in
    for j = 0 to n - 1 do
      if j <> i then begin
        let dst = ids.(j) in
        let at = time +. Delay.sample t.delay t.rng ~src ~dst in
        if detail then
          trace_copy ~time:(int_of_float time) ~src ~dst ~label:"randnum"
            ~deviant:false;
        if at <= deadline then tbl.((i * n) + j) <- at
      end
    done;
    if n > 1 then
      Metrics.Ledger.charge ledger ~label:"randnum" ~messages:(n - 1) ~rounds:0
  in
  (* Contributions are drawn in member order, exactly like the synchronous
     session — same Config/behaviour stream consumption. *)
  let contributions = ref [] in
  List.iteri
    (fun i id ->
      match Randnum.contribution cfg id with
      | None -> ()
      | Some share ->
        contributions := (i, (id, share)) :: !contributions;
        multicast escrow_at ~time:0.0 i)
    members;
  (* The reveals, in contributor order, with the queue peaks a
     [(time, seq)] kernel would reach.  Set-up queues [c * n] events:
     [c * (n - 1)] escrows and [c] boundary timers.  Before the k-th timer
     fires, E_k escrows have been delivered: those arriving before the
     boundary, plus those arriving exactly at it from the first k
     contributors, which were queued before that timer.  Its reveals then
     leave [c * n - E_k - k + k * (n - 1)] events queued,
     [c * (n - 1) - E_k + k * (n - 1)] of them messages in flight. *)
  let c = List.length !contributions in
  let delivered = ref 0 in
  for j = 0 to (n * n) - 1 do
    if escrow_at.(j) < boundary then incr delivered
  done;
  let queue = ref (c * n) and inflight = ref (c * (n - 1)) in
  List.iteri
    (fun k (i, _) ->
      for j = i * n to ((i + 1) * n) - 1 do
        if escrow_at.(j) = boundary then incr delivered
      done;
      multicast reveal_at ~time:boundary i;
      let k = k + 1 in
      queue := max !queue ((c * n) - !delivered - k + (k * (n - 1)));
      inflight := max !inflight ((c * (n - 1)) - !delivered + (k * (n - 1))))
    (List.rev !contributions);
  note_peaks t ~queue:!queue ~inflight:!inflight;
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
      (fun (i, _) ->
        2 * on_time escrow_at ~contributor:i ~limit:boundary > n
        && 2 * on_time reveal_at ~contributor:i ~limit:deadline > n)
      !contributions
  in
  let outcome = Randnum.conclude ~secure ~n ~range (List.map snd included) in
  (* The last on-time reveal of an included contribution (arrival times
     are never negative or NaN, so [>] is [Float.max]). *)
  let last_reveal acc (i, _) =
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
