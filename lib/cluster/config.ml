module Graph = Dsgraph.Graph

type t = {
  rng : Prng.Rng.t;
  ledger : Metrics.Ledger.t;
  byz : (int, Agreement.Byz_behavior.t) Hashtbl.t;
      (* static corruption, decided when a node enters *)
  clusters : (int, int list) Hashtbl.t;  (* cluster id -> sorted members *)
  node_home : (int, int) Hashtbl.t;  (* node id -> cluster id *)
  overlay : Graph.t;
  health_cache : Over.Health_cache.t;
}

let make ~rng ?ledger ~byzantine ~clusters ~overlay () =
  let ledger = match ledger with Some l -> l | None -> Metrics.Ledger.create () in
  let tbl = Hashtbl.create 64 in
  let node_home = Hashtbl.create 1024 in
  let byz = Hashtbl.create 256 in
  List.iter
    (fun (cid, members) ->
      if Hashtbl.mem tbl cid then invalid_arg "Config.make: duplicate cluster id";
      if not (Graph.has_vertex overlay cid) then
        invalid_arg "Config.make: cluster id missing from overlay";
      List.iter
        (fun node ->
          if Hashtbl.mem node_home node then
            invalid_arg "Config.make: node in several clusters";
          Hashtbl.replace node_home node cid;
          (* The adversary is static: corruption is decided here, once. *)
          match byzantine node with
          | Some strategy -> Hashtbl.replace byz node strategy
          | None -> ())
        members;
      Hashtbl.replace tbl cid (List.sort_uniq compare members))
    clusters;
  if Graph.n_vertices overlay <> Hashtbl.length tbl then
    invalid_arg "Config.make: overlay vertex without a cluster";
  {
    rng;
    ledger;
    byz;
    clusters = tbl;
    node_home;
    overlay;
    health_cache = Over.Health_cache.create ();
  }

let rng t = t.rng
let rng_cursors t = [ ("config", Prng.Rng.save t.rng) ]
let ledger t = t.ledger
let overlay t = t.overlay

let overlay_health ?spectral_iterations t =
  Over.Health_cache.health t.health_cache ?spectral_iterations t.overlay
let byzantine t node = Hashtbl.find_opt t.byz node
let is_byzantine t node = Hashtbl.mem t.byz node

let cluster_ids t =
  Hashtbl.fold (fun cid _ acc -> cid :: acc) t.clusters [] |> List.sort compare

let members t cid =
  match Hashtbl.find_opt t.clusters cid with
  | Some m -> m
  | None -> raise Not_found

let size t cid = List.length (members t cid)

let cluster_of t node =
  match Hashtbl.find_opt t.node_home node with
  | Some cid -> cid
  | None -> raise Not_found

let n_nodes t = Hashtbl.length t.node_home

let max_cluster_size t =
  Hashtbl.fold (fun _ m acc -> max acc (List.length m)) t.clusters 0

let byz_count t cid =
  List.length (List.filter (is_byzantine t) (members t cid))

let honest_fraction t cid =
  let n = size t cid in
  if n = 0 then 1.0 else float_of_int (n - byz_count t cid) /. float_of_int n

let honest_majority t cid =
  let m = members t cid in
  let honest = List.length (List.filter (fun node -> not (is_byzantine t node)) m) in
  3 * honest > 2 * List.length m

let move_node t ~node ~to_cluster =
  let from = cluster_of t node in
  if from <> to_cluster then begin
    let remaining = List.filter (fun x -> x <> node) (members t from) in
    Hashtbl.replace t.clusters from remaining;
    Hashtbl.replace t.clusters to_cluster
      (List.sort compare (node :: members t to_cluster));
    Hashtbl.replace t.node_home node to_cluster
  end

let swap_nodes t a b =
  let ca = cluster_of t a and cb = cluster_of t b in
  if ca <> cb then begin
    move_node t ~node:a ~to_cluster:cb;
    move_node t ~node:b ~to_cluster:ca
  end

let add_cluster t ~cid ~members:new_members =
  if Hashtbl.mem t.clusters cid then invalid_arg "Config.add_cluster: id in use";
  List.iter
    (fun node ->
      if not (Hashtbl.mem t.node_home node) then
        invalid_arg "Config.add_cluster: unknown member")
    new_members;
  Graph.add_vertex t.overlay cid;
  Hashtbl.replace t.clusters cid [];
  List.iter (fun node -> move_node t ~node ~to_cluster:cid) new_members

let remove_cluster t ~cid =
  if members t cid <> [] then invalid_arg "Config.remove_cluster: cluster not empty";
  Hashtbl.remove t.clusters cid;
  Graph.remove_vertex t.overlay cid

let register_node t ~node ?byzantine ~cluster () =
  if Hashtbl.mem t.node_home node then
    invalid_arg "Config.register_node: node already present";
  let members = members t cluster in
  Hashtbl.replace t.clusters cluster (List.sort compare (node :: members));
  Hashtbl.replace t.node_home node cluster;
  match byzantine with
  | Some strategy -> Hashtbl.replace t.byz node strategy
  | None -> ()

let remove_node t ~node =
  let home = cluster_of t node in
  Hashtbl.replace t.clusters home
    (List.filter (fun x -> x <> node) (members t home));
  Hashtbl.remove t.node_home node;
  Hashtbl.remove t.byz node

let build_uniform ~rng ?ledger ?behavior ~n_clusters ~cluster_size ~byz_per_cluster
    ~overlay_degree () =
  if byz_per_cluster > cluster_size then
    invalid_arg "Config.build_uniform: more Byzantine members than members";
  let behavior =
    match behavior with
    | Some f -> f
    | None -> fun node -> Agreement.Byz_behavior.Random_noise (node + 1)
  in
  let byz_tbl = Hashtbl.create 64 in
  let clusters =
    List.init n_clusters (fun cid ->
        let members =
          List.init cluster_size (fun i ->
              let node = (cid * cluster_size) + i in
              if i < byz_per_cluster then Hashtbl.replace byz_tbl node (behavior node);
              node)
        in
        (cid, members))
  in
  let overlay =
    if n_clusters = 1 then begin
      let g = Graph.create () in
      Graph.add_vertex g 0;
      g
    end
    else
      Dsgraph.Gen.random_regular_ish rng ~n:n_clusters
        ~d:(min overlay_degree (n_clusters - 1))
  in
  (* Guarantee connectivity for walk tests. *)
  (match Dsgraph.Traversal.connected_components overlay with
  | [] | [ _ ] -> ()
  | main :: rest ->
    let anchor = List.hd main in
    List.iter (fun comp -> ignore (Graph.add_edge overlay anchor (List.hd comp))) rest);
  make ~rng ?ledger ~byzantine:(Hashtbl.find_opt byz_tbl) ~clusters ~overlay ()
