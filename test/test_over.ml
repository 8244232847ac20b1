(* Tests for the OVER overlay maintenance. *)

module Graph = Dsgraph.Graph
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let fixed_degree d ~n_vertices = min (n_vertices - 1) d

let make ?(d = 4) ?(seed = 11) () =
  Over.create ~rng:(Rng.of_int seed) ~target_degree:(fixed_degree d)

let uniform_pick over rng () =
  let vs = Array.of_list (Graph.vertices (Over.graph over)) in
  vs.(Rng.int rng (Array.length vs))

let test_init_basic () =
  let over = make () in
  Over.init_erdos_renyi over ~vertices:[ 0; 1; 2; 3; 4; 5; 6; 7 ];
  checki "vertices" 8 (Over.n_vertices over);
  checkb "connected" true (Dsgraph.Traversal.is_connected (Over.graph over));
  checkb "mem" true (Over.mem over 3);
  checkb "not mem" false (Over.mem over 42)

let test_init_not_empty () =
  let over = make () in
  Over.init_erdos_renyi over ~vertices:[ 0; 1 ];
  Alcotest.check_raises "double init"
    (Invalid_argument "Over.init_erdos_renyi: overlay not empty") (fun () ->
      Over.init_erdos_renyi over ~vertices:[ 2 ])

let test_init_single_vertex () =
  let over = make () in
  Over.init_erdos_renyi over ~vertices:[ 9 ];
  checki "one vertex" 1 (Over.n_vertices over);
  checki "no edges" 0 (Graph.n_edges (Over.graph over))

let test_add_vertex_degree () =
  let over = make ~d:4 () in
  Over.init_erdos_renyi over ~vertices:(List.init 12 (fun i -> i));
  let rng = Rng.of_int 5 in
  Over.add_vertex over 100 ~pick:(uniform_pick over rng);
  checkb "mem new" true (Over.mem over 100);
  checki "fills to target" 4 (Graph.degree (Over.graph over) 100)

let test_add_duplicate () =
  let over = make () in
  Over.init_erdos_renyi over ~vertices:[ 0; 1; 2 ];
  let rng = Rng.of_int 6 in
  Alcotest.check_raises "duplicate vertex"
    (Invalid_argument "Over.add_vertex: vertex already present") (fun () ->
      Over.add_vertex over 1 ~pick:(uniform_pick over rng))

let test_remove_refills_neighbors () =
  let over = make ~d:4 () in
  Over.init_erdos_renyi over ~vertices:(List.init 16 (fun i -> i));
  let rng = Rng.of_int 7 in
  Over.remove_vertex over 3 ~pick:(uniform_pick over rng);
  checkb "gone" false (Over.mem over 3);
  (* Every survivor must have at least half the target degree. *)
  Graph.iter_vertices (Over.graph over) (fun v ->
      checkb "degree floor" true (Graph.degree (Over.graph over) v >= 2))

let test_remove_absent () =
  let over = make () in
  Over.init_erdos_renyi over ~vertices:[ 0; 1; 2 ];
  let rng = Rng.of_int 8 in
  Over.remove_vertex over 77 ~pick:(uniform_pick over rng) (* no-op *)

let test_degree_cap () =
  let over = make ~d:3 () in
  Over.init_erdos_renyi over ~vertices:(List.init 20 (fun i -> i));
  let rng = Rng.of_int 9 in
  (* Hammer one vertex with additions that all pick vertex 0. *)
  for i = 100 to 140 do
    Over.add_vertex over i ~pick:(fun () ->
        if Rng.bool rng then 0 else uniform_pick over rng ())
  done;
  checkb "cap enforced" true (Graph.degree (Over.graph over) 0 <= 2 * 3)

let test_health_fields () =
  let over = make ~d:4 () in
  Over.init_erdos_renyi over ~vertices:(List.init 24 (fun i -> i));
  let h = Over.health ~spectral_iterations:300 over in
  checki "vertices" 24 h.Over.n_vertices;
  checkb "edges counted" true (h.Over.n_edges > 0);
  checkb "connected" true h.Over.connected;
  checkb "lower <= upper" true
    (h.Over.spectral_expansion_lower <= h.Over.sweep_expansion_upper +. 1e-6);
  checkb "positive expansion" true (h.Over.spectral_expansion_lower > 0.0)

let test_health_disconnected () =
  let over = make () in
  Over.init_erdos_renyi over ~vertices:[ 0; 1; 2; 3 ];
  let g = Over.graph over in
  (* Cut vertex 0 off. *)
  List.iter (fun u -> ignore (Graph.remove_edge g 0 u)) (Graph.neighbors g 0);
  let h = Over.health ~spectral_iterations:100 over in
  checkb "disconnected" false h.Over.connected;
  Alcotest.check (Alcotest.float 1e-9) "zero lower" 0.0 h.Over.spectral_expansion_lower

let test_churn_stays_connected () =
  let rng = Rng.of_int 12 in
  let over = make ~d:6 ~seed:12 () in
  Over.init_erdos_renyi over ~vertices:(List.init 32 (fun i -> i));
  let next = ref 1000 in
  for _ = 1 to 300 do
    if Rng.bool rng && Over.n_vertices over < 64 then begin
      incr next;
      Over.add_vertex over !next ~pick:(uniform_pick over rng)
    end
    else if Over.n_vertices over > 16 then
      Over.remove_vertex over (uniform_pick over rng ()) ~pick:(uniform_pick over rng)
  done;
  checkb "still connected" true (Dsgraph.Traversal.is_connected (Over.graph over));
  let h = Over.health ~spectral_iterations:300 over in
  checkb "still expanding" true (h.Over.spectral_expansion_lower > 0.3)

let test_restore () =
  let over =
    Over.restore ~rng:(Rng.of_int 13) ~target_degree:(fixed_degree 4)
      ~vertices:[ 1; 2; 3; 4 ]
      ~edges:[ (1, 2); (2, 3); (3, 4) ]
  in
  checki "vertices" 4 (Over.n_vertices over);
  checki "edges" 3 (Graph.n_edges (Over.graph over));
  checkb "edge present" true (Graph.has_edge (Over.graph over) 2 3);
  (* The restored overlay participates normally in maintenance. *)
  let rng = Rng.of_int 14 in
  Over.add_vertex over 5 ~pick:(uniform_pick over rng);
  checkb "add after restore" true (Over.mem over 5)

(* ---------- Law-Siu cycle-union overlay ---------- *)

module Cycles = Over.Cycles

let test_cycles_create () =
  let c = Cycles.create ~rng:(Rng.of_int 20) ~r:2 ~initial:(List.init 10 (fun i -> i)) in
  Cycles.check_consistency c;
  checki "vertices" 10 (Cycles.n_vertices c);
  let g = Cycles.graph c in
  checkb "max degree <= 2r" true (Graph.max_degree g <= 4);
  checkb "min degree >= 2" true (Graph.min_degree g >= 2);
  checkb "connected" true (Dsgraph.Traversal.is_connected g)

let test_cycles_validation () =
  Alcotest.check_raises "too few vertices"
    (Invalid_argument "Cycles.create: need at least 3 vertices") (fun () ->
      ignore (Cycles.create ~rng:(Rng.of_int 21) ~r:2 ~initial:[ 1; 2 ]));
  let c = Cycles.create ~rng:(Rng.of_int 22) ~r:1 ~initial:[ 1; 2; 3 ] in
  Alcotest.check_raises "duplicate add"
    (Invalid_argument "Cycles.add_vertex: vertex already present") (fun () ->
      Cycles.add_vertex c 1);
  Alcotest.check_raises "floor of 3"
    (Invalid_argument "Cycles.remove_vertex: would drop below 3 vertices") (fun () ->
      Cycles.remove_vertex c 1)

let test_cycles_churn () =
  let rng = Rng.of_int 23 in
  let c = Cycles.create ~rng:(Rng.split rng) ~r:3 ~initial:(List.init 16 (fun i -> i)) in
  let next = ref 100 in
  for _ = 1 to 400 do
    if Rng.bool rng && Cycles.n_vertices c < 48 then begin
      incr next;
      Cycles.add_vertex c !next
    end
    else if Cycles.n_vertices c > 8 then begin
      (* remove a random present vertex *)
      let g = Cycles.graph c in
      let vs = Array.of_list (Graph.vertices g) in
      Cycles.remove_vertex c vs.(Rng.int rng (Array.length vs))
    end
  done;
  Cycles.check_consistency c;
  let h = Cycles.health ~spectral_iterations:300 c in
  checkb "connected by construction" true h.Over.connected;
  checkb "degree bounded by 2r" true (h.Over.max_degree <= 6);
  checkb "expanding (r=3)" true (h.Over.spectral_expansion_lower > 0.15)

let test_cycles_r1_is_a_ring () =
  (* One cycle = a ring: connected but a bad expander — the r >= 2
     requirement of the construction is visible. *)
  let c = Cycles.create ~rng:(Rng.of_int 24) ~r:1 ~initial:(List.init 32 (fun i -> i)) in
  let h = Cycles.health ~spectral_iterations:600 c in
  checkb "connected" true h.Over.connected;
  checkb "poor expansion" true (h.Over.sweep_expansion_upper < 0.3)

let suite =
  [
    Alcotest.test_case "init basic" `Quick test_init_basic;
    Alcotest.test_case "restore" `Quick test_restore;
    Alcotest.test_case "cycles create" `Quick test_cycles_create;
    Alcotest.test_case "cycles validation" `Quick test_cycles_validation;
    Alcotest.test_case "cycles churn" `Quick test_cycles_churn;
    Alcotest.test_case "cycles r=1 ring" `Quick test_cycles_r1_is_a_ring;
    Alcotest.test_case "double init rejected" `Quick test_init_not_empty;
    Alcotest.test_case "init single vertex" `Quick test_init_single_vertex;
    Alcotest.test_case "add vertex degree" `Quick test_add_vertex_degree;
    Alcotest.test_case "add duplicate rejected" `Quick test_add_duplicate;
    Alcotest.test_case "remove refills neighbors" `Quick test_remove_refills_neighbors;
    Alcotest.test_case "remove absent" `Quick test_remove_absent;
    Alcotest.test_case "degree cap" `Quick test_degree_cap;
    Alcotest.test_case "health fields" `Quick test_health_fields;
    Alcotest.test_case "health disconnected" `Quick test_health_disconnected;
    Alcotest.test_case "churn stays connected" `Quick test_churn_stays_connected;
  ]
