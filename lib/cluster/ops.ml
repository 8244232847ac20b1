module Graph = Dsgraph.Graph
module Ledger = Metrics.Ledger

type error = Walk.error

(* A random permutation computed collaboratively: Fisher-Yates where each
   swap index is one randNum draw by the cluster. *)
let collaborative_shuffle cfg ~cluster arr =
  for i = Array.length arr - 1 downto 1 do
    let j = (Randnum.run cfg ~cluster ~range:(i + 1)).Randnum.value in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Each public operation runs under a Msg-layer trace span; the logical
   time stamp is the ledger's running round total at entry. *)
let op_span cfg name attrs f =
  let ledger = Config.ledger cfg in
  Trace.with_span ~attrs ~ledger
    ~time:(Metrics.Ledger.total_rounds ledger)
    Trace.Msg name f

let split_session cfg ~cluster ~fresh_cid ~overlay_edges =
  let members = Array.of_list (Config.members cfg cluster) in
  collaborative_shuffle cfg ~cluster members;
  let half = Array.length members / 2 in
  let moving = Array.to_list (Array.sub members 0 half) in
  Config.add_cluster cfg ~cid:fresh_cid ~members:moving;
  (* Wire the fresh vertex to randCl-chosen clusters. *)
  let overlay = Config.overlay cfg in
  let rec wire budget =
    if Dsgraph.Graph.degree overlay fresh_cid >= overlay_edges || budget = 0 then Ok ()
    else
      match Walk.rand_cl cfg ~start:cluster with
      | Error e -> Error e
      | Ok { Walk.selected; _ } ->
        if selected <> fresh_cid then begin
          if Dsgraph.Graph.add_edge overlay fresh_cid selected then
            Trace.point
              ~attrs:[ ("dst", selected); ("src", fresh_cid) ]
              ~time:(Metrics.Ledger.total_rounds (Config.ledger cfg))
              Trace.Msg "over.edge_add"
        end;
        wire (budget - 1)
  in
  match wire (8 * (overlay_edges + 1)) with
  | Error e -> Error e
  | Ok () ->
    (* Old cluster tells its neighbours it was replaced; the new cluster
       announces itself to its fresh neighbourhood. *)
    Ledger.charge (Config.ledger cfg) ~label:"split.view_update"
      ~messages:(Exchange.view_cost cfg cluster + Exchange.view_cost cfg fresh_cid)
      ~rounds:1;
    Ok fresh_cid

let split cfg ~cluster ~fresh_cid ~overlay_edges =
  op_span cfg "split"
    [ ("cluster", cluster); ("fresh", fresh_cid) ]
    (fun () -> split_session cfg ~cluster ~fresh_cid ~overlay_edges)

let merge_session cfg ~cluster =
  let rec pick_victim budget =
    if budget = 0 then Error `Too_many_restarts
    else
      match Walk.rand_cl cfg ~start:cluster with
      | Error e -> Error e
      | Ok { Walk.selected; _ } ->
        if selected <> cluster then Ok selected else pick_victim (budget - 1)
  in
  match pick_victim 200 with
  | Error e -> Error e
  | Ok victim ->
    let absorbed = Config.members cfg victim in
    Ledger.charge (Config.ledger cfg) ~label:"merge.absorb"
      ~messages:(List.length absorbed * Config.size cfg cluster)
      ~rounds:1;
    List.iter (fun node -> Config.move_node cfg ~node ~to_cluster:cluster) absorbed;
    Config.remove_cluster cfg ~cid:victim;
    (match Exchange.exchange_all cfg ~cluster with
    | Ok _ -> Ok victim
    | Error e -> Error e)

let merge cfg ~cluster =
  op_span cfg "merge"
    [ ("cluster", cluster) ]
    (fun () -> merge_session cfg ~cluster)

let join_session cfg ?byzantine ?duration ~node ~contact () =
  match Walk.rand_cl ?duration cfg ~start:contact with
  | Error e -> Error e
  | Ok { Walk.selected; _ } ->
    Config.register_node cfg ~node ?byzantine ~cluster:selected ();
    (* The destination announces the new composition to its neighbourhood
       and ships the joiner its own and its neighbours' views. *)
    let neighborhood = ref (Config.size cfg selected) in
    Graph.iter_neighbors (Config.overlay cfg) selected (fun nb ->
        neighborhood := !neighborhood + Config.size cfg nb);
    Ledger.charge (Config.ledger cfg) ~label:"join.insert"
      ~messages:(Exchange.view_cost cfg selected + !neighborhood)
      ~rounds:2;
    (match Exchange.exchange_all ?duration cfg ~cluster:selected with
    | Ok _ -> Ok selected
    | Error e -> Error e)

let join cfg ?byzantine ?duration ~node ~contact () =
  op_span cfg "join"
    [ ("contact", contact); ("node", node) ]
    (fun () -> join_session cfg ?byzantine ?duration ~node ~contact ())

let leave_session cfg ?duration ~node () =
  let home = Config.cluster_of cfg node in
  Config.remove_node cfg ~node;
  (* Members of the cluster drop the departed node from their views and
     tell the neighbours to do the same. *)
  Ledger.charge (Config.ledger cfg) ~label:"leave.notify"
    ~messages:(Config.size cfg home + Exchange.view_cost cfg home)
    ~rounds:1;
  match Exchange.exchange_all ?duration cfg ~cluster:home with
  | Error e -> Error e
  | Ok touched ->
    (* One-level cascade: every cluster that swapped with [home]
       re-randomises its own membership (Theorem 3's requirement). *)
    let rec cascade = function
      | [] -> Ok touched
      | c :: rest ->
        (match Exchange.exchange_all ?duration cfg ~cluster:c with
        | Ok _ -> cascade rest
        | Error e -> Error e)
    in
    cascade touched

let leave cfg ?duration ~node () =
  let home = Config.cluster_of cfg node in
  op_span cfg "leave"
    [ ("home", home); ("node", node) ]
    (fun () -> leave_session cfg ?duration ~node ())
