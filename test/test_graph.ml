(* Tests for the graph substrate: structure, generators, traversal,
   expansion estimators. *)

module Graph = Dsgraph.Graph
module Gen = Dsgraph.Gen
module Traversal = Dsgraph.Traversal
module Expansion = Dsgraph.Expansion
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf_eps eps msg a b = Alcotest.check (Alcotest.float eps) msg a b

let test_add_remove_edge () =
  let g = Graph.create () in
  checkb "add new" true (Graph.add_edge g 1 2);
  checkb "add duplicate" false (Graph.add_edge g 1 2);
  checkb "add reversed duplicate" false (Graph.add_edge g 2 1);
  checkb "no self loop" false (Graph.add_edge g 3 3);
  checki "edges" 1 (Graph.n_edges g);
  checkb "has edge" true (Graph.has_edge g 2 1);
  checkb "remove" true (Graph.remove_edge g 1 2);
  checkb "remove again" false (Graph.remove_edge g 1 2);
  checki "edges after" 0 (Graph.n_edges g)

let test_remove_vertex () =
  let g = Graph.create () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 0 2);
  ignore (Graph.add_edge g 1 2);
  Graph.remove_vertex g 0;
  checkb "vertex gone" false (Graph.has_vertex g 0);
  checki "edges" 1 (Graph.n_edges g);
  checki "degree 1" 1 (Graph.degree g 1);
  Graph.remove_vertex g 99 (* absent: no-op *)

let test_degrees () =
  let g = Gen.complete ~n:5 in
  checki "max" 4 (Graph.max_degree g);
  checki "min" 4 (Graph.min_degree g);
  checkf_eps 1e-9 "mean" 4.0 (Graph.mean_degree g);
  checki "absent vertex degree" 0 (Graph.degree g 42)

let test_neighbors () =
  let g = Graph.create () in
  ignore (Graph.add_edge g 7 8);
  ignore (Graph.add_edge g 7 9);
  let n = List.sort compare (Graph.neighbors g 7) in
  Alcotest.check (Alcotest.list Alcotest.int) "neighbors" [ 8; 9 ] n;
  Alcotest.check (Alcotest.list Alcotest.int) "no neighbors" [] (Graph.neighbors g 100)

let test_random_neighbor () =
  let g = Graph.create () in
  let rng = Rng.of_int 1 in
  Alcotest.check (Alcotest.option Alcotest.int) "isolated" None
    (Graph.random_neighbor g rng 5);
  ignore (Graph.add_edge g 5 6);
  Alcotest.check (Alcotest.option Alcotest.int) "only neighbor" (Some 6)
    (Graph.random_neighbor g rng 5)

let test_random_neighbor_uniform () =
  let g = Graph.create () in
  List.iter (fun v -> ignore (Graph.add_edge g 0 v)) [ 1; 2; 3; 4 ];
  let rng = Rng.of_int 2 in
  let counts = Hashtbl.create 4 in
  for _ = 1 to 4000 do
    match Graph.random_neighbor g rng 0 with
    | Some v ->
      Hashtbl.replace counts v
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
    | None -> Alcotest.fail "neighbor expected"
  done;
  Hashtbl.iter
    (fun _ c -> checkb "roughly uniform" true (abs (c - 1000) < 200))
    counts

let test_copy_and_edges () =
  let g = Gen.ring ~n:6 in
  let g' = Graph.copy g in
  ignore (Graph.add_edge g' 0 3);
  checki "copy has extra edge" 7 (Graph.n_edges g');
  checki "original untouched" 6 (Graph.n_edges g);
  checki "edges list" 6 (List.length (Graph.edges g));
  List.iter (fun (u, v) -> checkb "ordered pairs" true (u < v)) (Graph.edges g)

let test_er_connected () =
  let rng = Rng.of_int 3 in
  let g = Gen.erdos_renyi_connected rng ~n:60 ~p:0.15 in
  checkb "connected" true (Traversal.is_connected g);
  checki "vertices" 60 (Graph.n_vertices g)

let test_er_edge_count () =
  let rng = Rng.of_int 4 in
  let s = Metrics.Stats.create () in
  for _ = 1 to 60 do
    let g = Gen.erdos_renyi rng ~n:40 ~p:0.2 in
    Metrics.Stats.add_int s (Graph.n_edges g)
  done;
  (* E[edges] = p * n(n-1)/2 = 156 *)
  checkb "edge count near expectation" true
    (abs_float (Metrics.Stats.mean s -. 156.0) < 12.0)

let test_er_extremes () =
  let rng = Rng.of_int 5 in
  let g0 = Gen.erdos_renyi rng ~n:10 ~p:0.0 in
  checki "p=0 no edges" 0 (Graph.n_edges g0);
  let g1 = Gen.erdos_renyi rng ~n:10 ~p:1.0 in
  checki "p=1 complete" 45 (Graph.n_edges g1)

let test_regular_ish () =
  let rng = Rng.of_int 6 in
  let g = Gen.random_regular_ish rng ~n:100 ~d:8 in
  checki "vertices" 100 (Graph.n_vertices g);
  checkb "mean degree near 8" true (abs_float (Graph.mean_degree g -. 8.0) < 1.5)

let test_bfs_distances () =
  let g = Gen.ring ~n:8 in
  let dist = Traversal.bfs_distances g 0 in
  checki "self" 0 (Hashtbl.find dist 0);
  checki "adjacent" 1 (Hashtbl.find dist 1);
  checki "opposite" 4 (Hashtbl.find dist 4);
  checki "wrap" 1 (Hashtbl.find dist 7)

let test_connectivity () =
  let g = Graph.create () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 2 3);
  checkb "disconnected" false (Traversal.is_connected g);
  checki "two components" 2 (List.length (Traversal.connected_components g));
  ignore (Graph.add_edge g 1 2);
  checkb "connected now" true (Traversal.is_connected g);
  checkb "empty graph connected" true (Traversal.is_connected (Graph.create ()))

let test_diameter () =
  checki "ring 8" 4 (Traversal.diameter (Gen.ring ~n:8));
  checki "complete" 1 (Traversal.diameter (Gen.complete ~n:5));
  checki "single vertex" 0 (Traversal.diameter (Gen.complete ~n:1))

let test_diameter_disconnected () =
  let g = Graph.create () in
  Graph.add_vertex g 0;
  Graph.add_vertex g 1;
  Alcotest.check_raises "disconnected diameter"
    (Failure "Traversal.diameter: disconnected graph") (fun () ->
      ignore (Traversal.diameter g))

let test_honest_diameter () =
  (* Path 0-1-2-3 where only vertex 1 is honest: edges 0-1 and 1-2 are
     usable; 2-3 is not (both dishonest), so 3 is unreachable from the
     honest vertex 1... but honest_diameter measures distances between
     honest vertices only — with a single honest vertex it is 0. *)
  let g = Graph.create () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 2 3);
  checki "single honest vertex" 0 (Traversal.honest_diameter g ~honest:(fun v -> v = 1));
  (* All honest: equals the plain diameter. *)
  checki "all honest = diameter" 3 (Traversal.honest_diameter g ~honest:(fun _ -> true));
  (* Honest at 0 and 3; middle dishonest but edges adjacent to honest
     endpoints still usable: hmm, 1-2 has no honest endpoint, so 0 and 3
     cannot reach each other. *)
  Alcotest.check_raises "unreachable honest pair"
    (Failure "Traversal.honest_diameter: honest vertex unreachable") (fun () ->
      ignore (Traversal.honest_diameter g ~honest:(fun v -> v = 0 || v = 3)))

let test_exact_expansion_known () =
  (* Complete graph K4: every subset S has cut |S| * (4 - |S|);
     I = min over |S| <= 2 of |S|(4-|S|)/|S| = 4 - |S| -> min at |S|=2: 2. *)
  checkf_eps 1e-9 "K4" 2.0 (Expansion.exact (Gen.complete ~n:4));
  (* Path 0-1-2-3: S = {0,1} has one boundary edge -> 1/2. *)
  let path = Graph.create () in
  ignore (Graph.add_edge path 0 1);
  ignore (Graph.add_edge path 1 2);
  ignore (Graph.add_edge path 2 3);
  checkf_eps 1e-9 "path" 0.5 (Expansion.exact path)

let test_exact_expansion_ring () =
  (* Ring of 8: best cut is an arc of 4 vertices with 2 boundary edges. *)
  checkf_eps 1e-9 "ring 8" 0.5 (Expansion.exact (Gen.ring ~n:8))

let test_exact_too_big () =
  Alcotest.check_raises "too many vertices"
    (Invalid_argument "Expansion.exact: too many vertices (max 24)") (fun () ->
      ignore (Expansion.exact (Gen.ring ~n:30)))

let test_expansion_brackets () =
  (* spectral lower <= exact <= sweep upper on assorted small graphs *)
  let rng = Rng.of_int 7 in
  for i = 1 to 10 do
    let n = 8 + (i mod 5) in
    let g = Gen.erdos_renyi_connected rng ~n ~p:0.5 in
    let exact = Expansion.exact g in
    let lower = Expansion.spectral_lower ~iterations:3000 g in
    let upper = Expansion.sweep_upper ~iterations:3000 g in
    checkb "lower <= exact" true (lower <= exact +. 1e-6);
    checkb "exact <= upper" true (exact <= upper +. 1e-6)
  done

let test_fiedler_disconnected () =
  let g = Graph.create () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 2 3);
  let mu2 = 2.0 *. Expansion.spectral_lower ~iterations:2000 g in
  checkb "mu2 ~ 0 for disconnected" true (mu2 < 0.05)

(* --- property tests --- *)

let graph_gen =
  (* Build a graph from a random edge list over <= 12 vertices. *)
  QCheck.(list_of_size (QCheck.Gen.int_range 0 40) (pair (int_range 0 11) (int_range 0 11)))

let prop_edge_count_consistent =
  QCheck.Test.make ~name:"n_edges matches edges list" ~count:300 graph_gen (fun edges ->
      let g = Graph.create () in
      List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) edges;
      Graph.n_edges g = List.length (Graph.edges g))

let prop_degree_sum =
  QCheck.Test.make ~name:"handshake lemma" ~count:300 graph_gen (fun edges ->
      let g = Graph.create () in
      List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) edges;
      let sum =
        List.fold_left (fun acc v -> acc + Graph.degree g v) 0 (Graph.vertices g)
      in
      sum = 2 * Graph.n_edges g)

let prop_remove_vertex_cleans =
  QCheck.Test.make ~name:"remove_vertex leaves no dangling edges" ~count:300 graph_gen
    (fun edges ->
      let g = Graph.create () in
      List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) edges;
      Graph.remove_vertex g 0;
      List.for_all (fun (u, v) -> u <> 0 && v <> 0) (Graph.edges g)
      && List.for_all (fun v -> not (Graph.has_edge g v 0)) (Graph.vertices g))

(* The ascending edge walk lists exactly the sorted edge list, also after
   edge and vertex removals (which invalidate the memoised neighbour
   arrays it reads). *)
let prop_sorted_edge_walk =
  QCheck.Test.make ~name:"iter_sorted_edges = List.sort compare (edges g)" ~count:300
    QCheck.(
      pair graph_gen
        (list_of_size (QCheck.Gen.int_range 0 20)
           (pair (int_range 0 11) (int_range 0 11))))
    (fun (edges, removals) ->
      let g = Graph.create () in
      List.iter (fun (u, v) -> ignore (Graph.add_edge g u v)) edges;
      let walk () =
        let acc = ref [] in
        Graph.iter_sorted_edges g (fun u v -> acc := (u, v) :: !acc);
        List.rev !acc
      in
      let before = walk () = List.sort compare (Graph.edges g) in
      List.iter
        (fun (u, v) ->
          if u = v then Graph.remove_vertex g u else ignore (Graph.remove_edge g u v))
        removals;
      before && walk () = List.sort compare (Graph.edges g))

let suite =
  [
    Alcotest.test_case "add/remove edge" `Quick test_add_remove_edge;
    Alcotest.test_case "remove vertex" `Quick test_remove_vertex;
    Alcotest.test_case "degrees" `Quick test_degrees;
    Alcotest.test_case "neighbors" `Quick test_neighbors;
    Alcotest.test_case "random neighbor" `Quick test_random_neighbor;
    Alcotest.test_case "random neighbor uniform" `Quick test_random_neighbor_uniform;
    Alcotest.test_case "copy and edges" `Quick test_copy_and_edges;
    Alcotest.test_case "ER connected" `Quick test_er_connected;
    Alcotest.test_case "ER edge count" `Quick test_er_edge_count;
    Alcotest.test_case "ER extremes" `Quick test_er_extremes;
    Alcotest.test_case "regular-ish generator" `Quick test_regular_ish;
    Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
    Alcotest.test_case "connectivity" `Quick test_connectivity;
    Alcotest.test_case "diameter" `Quick test_diameter;
    Alcotest.test_case "diameter disconnected" `Quick test_diameter_disconnected;
    Alcotest.test_case "honest diameter" `Quick test_honest_diameter;
    Alcotest.test_case "exact expansion known graphs" `Quick test_exact_expansion_known;
    Alcotest.test_case "exact expansion ring" `Quick test_exact_expansion_ring;
    Alcotest.test_case "exact expansion size guard" `Quick test_exact_too_big;
    Alcotest.test_case "expansion brackets exact" `Quick test_expansion_brackets;
    Alcotest.test_case "fiedler disconnected" `Quick test_fiedler_disconnected;
    QCheck_alcotest.to_alcotest prop_edge_count_consistent;
    QCheck_alcotest.to_alcotest prop_degree_sum;
    QCheck_alcotest.to_alcotest prop_remove_vertex_cleans;
    QCheck_alcotest.to_alcotest prop_sorted_edge_walk;
  ]
