type 'msg handler = round:int -> inbox:(int * 'msg) list -> unit

type 'msg node = {
  handler : 'msg handler;
  mutable inbox_rev : (int * 'msg) list;
}

type 'msg t = {
  nodes : (int, 'msg node) Hashtbl.t;
  mutable order : 'msg node list option;  (* by increasing id; rebuilt after an add *)
  mutable pending : (int * 'msg node * 'msg) list;  (* (src, dst, msg), newest first *)
  mutable round : int;
  mutable messages_sent : int;
  ledger : Metrics.Ledger.t;
}

let create ?ledger () =
  let ledger = match ledger with Some l -> l | None -> Metrics.Ledger.create () in
  {
    nodes = Hashtbl.create 256;
    order = None;
    pending = [];
    round = 0;
    messages_sent = 0;
    ledger;
  }

let add_node t ~id handler =
  if Hashtbl.mem t.nodes id then invalid_arg "Net.add_node: id already in use";
  Hashtbl.add t.nodes id { handler; inbox_rev = [] };
  t.order <- None

let in_id_order t =
  match t.order with
  | Some nodes -> nodes
  | None ->
    let nodes =
      Hashtbl.fold (fun id node acc -> (id, node) :: acc) t.nodes []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd
    in
    t.order <- Some nodes;
    nodes

let check_sender t src =
  if not (Hashtbl.mem t.nodes src) then invalid_arg "Net.send: sender is not alive"

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
  (match Hashtbl.find_opt t.nodes dst with
  | Some node -> t.pending <- (src, node, msg) :: t.pending
  | None -> ());
  t.messages_sent <- t.messages_sent + 1;
  trace_send ~round:t.round ~src ~dst ~label ~deviant

let send t ~src ~dst ?(label = "msg") ?(deviant = false) msg =
  check_sender t src;
  send_uncharged t ~src ~dst ~label ~deviant msg;
  Metrics.Ledger.charge t.ledger ~label ~messages:1 ~rounds:0

let multicast t ~src ~dsts ?(label = "msg") msg =
  if dsts <> [] then begin
    check_sender t src;
    List.iter (fun dst -> send_uncharged t ~src ~dst ~label ~deviant:false msg) dsts;
    Metrics.Ledger.charge t.ledger ~label ~messages:(List.length dsts) ~rounds:0
  end

let round t = t.round

(* Deliver the queued sends, then run every handler in id order; a
   stable sort on the (already send-ordered) inbox groups messages by
   sender. *)
let run_round t =
  List.iter
    (fun (src, node, msg) -> node.inbox_rev <- (src, msg) :: node.inbox_rev)
    (List.rev t.pending);
  t.pending <- [];
  t.round <- t.round + 1;
  trace_round t.round;
  Metrics.Ledger.charge t.ledger ~label:"round" ~messages:0 ~rounds:1;
  List.iter
    (fun node ->
      let inbox =
        match node.inbox_rev with
        | [] -> []
        | inbox_rev ->
          List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev inbox_rev)
      in
      node.inbox_rev <- [];
      node.handler ~round:t.round ~inbox)
    (in_id_order t)

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
