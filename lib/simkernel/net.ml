type 'msg handler = round:int -> inbox:(int * 'msg) list -> unit

type 'msg node = {
  mutable handler : 'msg handler;
  mutable inbox_rev : (int * 'msg) list;
}

type 'msg t = {
  nodes : (int, 'msg node) Hashtbl.t;
  mutable ids_cache : int list option;  (* sorted live ids, rebuilt on churn *)
  mutable pending : (int * int * 'msg) list;  (* (src, dst, msg), reversed send order *)
  mutable round : int;
  mutable messages_sent : int;
  mutable deviant_sent : int;
  ledger : Metrics.Ledger.t;
}

let create ?ledger () =
  let ledger = match ledger with Some l -> l | None -> Metrics.Ledger.create () in
  {
    nodes = Hashtbl.create 256;
    ids_cache = None;
    pending = [];
    round = 0;
    messages_sent = 0;
    deviant_sent = 0;
    ledger;
  }

let ledger t = t.ledger

let add_node t ~id handler =
  if Hashtbl.mem t.nodes id then invalid_arg "Net.add_node: id already in use";
  Hashtbl.add t.nodes id { handler; inbox_rev = [] };
  t.ids_cache <- None

let replace_handler t ~id handler =
  match Hashtbl.find_opt t.nodes id with
  | Some node -> node.handler <- handler
  | None -> invalid_arg "Net.replace_handler: unknown node"

let remove_node t id =
  if Hashtbl.mem t.nodes id then begin
    Hashtbl.remove t.nodes id;
    t.ids_cache <- None
  end

let is_alive t id = Hashtbl.mem t.nodes id

let nodes t =
  match t.ids_cache with
  | Some ids -> ids
  | None ->
    let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.nodes [] |> List.sort compare in
    t.ids_cache <- Some ids;
    ids

let check_sender t src =
  if not (is_alive t src) then invalid_arg "Net.send: sender is not alive"

let trace_round round =
  if Trace.net_detail () then
    Trace.point ~attrs:[ ("round", round) ] ~time:round Trace.Net "net.round"

let trace_send ~round ~src ~dst ~label ~deviant =
  if Trace.net_detail () then begin
    let attrs = [ ("dst", dst); ("src", src) ] in
    if deviant then Trace.point ~attrs ~time:round Trace.Net ("net.byz." ^ label);
    Trace.point ~attrs ~time:round Trace.Net ("net.send." ^ label)
  end

(* Count + trace one message, and queue it only if its destination is
   registered right now; ledger charging is the caller's (so [multicast]
   can charge its whole batch in one ledger update — observably
   identical, the ledger only accumulates totals). *)
let send_uncharged t ~src ~dst ~label ~deviant msg =
  if Hashtbl.mem t.nodes dst then t.pending <- (src, dst, msg) :: t.pending;
  t.messages_sent <- t.messages_sent + 1;
  if deviant then t.deviant_sent <- t.deviant_sent + 1;
  trace_send ~round:t.round ~src ~dst ~label ~deviant

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

let round t = t.round

let run_round t =
  (* Deliver round-(r) sends into inboxes. *)
  List.iter
    (fun (src, dst, msg) ->
      match Hashtbl.find_opt t.nodes dst with
      | Some node -> node.inbox_rev <- (src, msg) :: node.inbox_rev
      | None -> () (* destination departed since the send: message lost *))
    (List.rev t.pending);
  t.pending <- [];
  t.round <- t.round + 1;
  trace_round t.round;
  Metrics.Ledger.charge t.ledger ~label:"round" ~messages:0 ~rounds:1;
  (* Execute handlers in id order; a stable sort on the (already
     send-ordered) inbox groups messages by sender. *)
  let ids = nodes t in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.nodes id with
      | None -> () (* removed by an earlier handler this round *)
      | Some node ->
        let inbox =
          match node.inbox_rev with
          | [] -> []
          | inbox_rev ->
            List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev inbox_rev)
        in
        node.inbox_rev <- [];
        node.handler ~round:t.round ~inbox)
    ids

let run_rounds t n =
  for _ = 1 to n do
    run_round t
  done

let run_until t ?(max_rounds = 10_000) pred =
  let rec go executed =
    if pred () then executed
    else if executed >= max_rounds then
      failwith "Net.run_until: predicate not satisfied within max_rounds"
    else begin
      run_round t;
      go (executed + 1)
    end
  in
  go 0

let messages_sent t = t.messages_sent
let deviant_sent t = t.deviant_sent
