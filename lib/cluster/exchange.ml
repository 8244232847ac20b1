module Graph = Dsgraph.Graph
module Ledger = Metrics.Ledger
module B = Agreement.Byz_behavior

type error = Walk.error

let view_cost cfg cluster =
  let size = Config.size cfg cluster in
  let messages = ref 0 in
  Graph.iter_neighbors (Config.overlay cfg) cluster (fun nb ->
      messages := !messages + (size * Config.size cfg nb));
  !messages

(* Every member of [cluster] tells every member of each neighbouring
   cluster the new composition. *)
let charge_view_update (l : Walk.leaves) cfg cluster =
  (* Lie_views members announce a divergent composition inside this bulk
     update; receivers keep the majority view, so the lie surfaces only as
     an injected deviation. *)
  (if Trace.active () then
     List.iter
       (fun node ->
         match Config.byzantine cfg node with
         | Some (B.Lie_views _ as s) ->
           Trace.point
             ~attrs:[ ("cluster", cluster); ("node", node) ]
             Trace.Msg
             ("byz." ^ B.deviation s)
         | Some _ | None -> ())
       (Config.members cfg cluster));
  Ledger.charge (Config.ledger cfg) ~label:"exchange.view_update"
    ~messages:(view_cost cfg cluster) ~rounds:l.bulk_rounds

(* The makespan sums the walk's, the announcement's and the replacement
   draw's, in that order. *)
let exchange_node_session (l : Walk.leaves) ?duration cfg ~node ~home =
  match Walk.rand_cl_on l ?duration cfg ~start:home with
  | Error e, walk -> (Error e, walk)
  | Ok { selected; _ }, walk ->
    if selected = home then (Ok home, walk)
    else begin
      (* Inform C' that it receives x, over the validated channel. *)
      let _, announce =
        l.transmit ~src_cluster:home ~dst_cluster:selected ~label:"exchange.announce"
          ~payload:node
      in
      (* C' picks the replacement uniformly and the two nodes swap; the
         transfers themselves cost one message to each new team-mate. *)
      let replacement, draw = Walk.pick_member_on l cfg ~cluster:selected in
      let transfer_messages = Config.size cfg home + Config.size cfg selected in
      Ledger.charge (Config.ledger cfg) ~label:"exchange.transfer"
        ~messages:transfer_messages ~rounds:l.bulk_rounds;
      Config.swap_nodes cfg node replacement;
      (Ok selected, walk +. announce +. draw)
    end

let exchange_node_on (l : Walk.leaves) ?duration cfg ~node =
  let home = Config.cluster_of cfg node in
  Trace.with_span
    ~attrs:[ ("home", home); ("node", node) ]
    ~ledger:(Config.ledger cfg) ~time:(l.span_time ()) Trace.Msg "exchange.node"
    (fun () -> exchange_node_session l ?duration cfg ~node ~home)

let exchange_node ?duration cfg ~node =
  fst (exchange_node_on (Walk.sync cfg) ?duration cfg ~node)

let exchange_all_session l ?duration cfg ~cluster =
  let snapshot = Config.members cfg cluster in
  let rec go nodes touched elapsed =
    match nodes with
    | [] -> (Ok touched, elapsed)
    | node :: rest -> (
      match exchange_node_on l ?duration cfg ~node with
      | Error e, span -> (Error e, elapsed +. span)
      | Ok dest, span ->
        let touched = if dest = cluster then touched else dest :: touched in
        go rest touched (elapsed +. span))
  in
  match go snapshot [] 0.0 with
  | Error e, elapsed -> (Error e, elapsed)
  | Ok touched, elapsed ->
    let touched = List.sort_uniq compare touched in
    List.iter (charge_view_update l cfg) (cluster :: touched);
    (Ok touched, elapsed)

let exchange_all_on (l : Walk.leaves) ?duration cfg ~cluster =
  Trace.with_span
    ~attrs:[ ("cluster", cluster) ]
    ~ledger:(Config.ledger cfg) ~time:(l.span_time ()) Trace.Msg "exchange"
    (fun () -> exchange_all_session l ?duration cfg ~cluster)

let exchange_all ?duration cfg ~cluster =
  fst (exchange_all_on (Walk.sync cfg) ?duration cfg ~cluster)
