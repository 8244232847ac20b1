(* Tests for network discovery: completion under silent Byzantine nodes,
   its connectivity precondition, rounds and message charging. *)

module B = Agreement.Byz_behavior
module Discovery = Cluster.Discovery
module Graph = Dsgraph.Graph
module Gen = Dsgraph.Gen
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let byz_set ids strategy id = if List.mem id ids then Some strategy else None

(* ---------- discovery ---------- *)

let test_discovery_all_honest () =
  let rng = Rng.of_int 11 in
  let g = Gen.erdos_renyi_connected rng ~n:40 ~p:0.15 in
  let r = Discovery.run g ~byzantine:(fun _ -> None) () in
  checkb "complete" true r.Discovery.complete;
  checkb "rounds bounded by diameter + drain" true
    (r.Discovery.rounds <= r.Discovery.honest_diameter_bound + 3);
  (* O(n * e): every id crosses every edge at most twice. *)
  checkb "message bound" true
    (r.Discovery.messages <= 2 * 40 * 2 * Graph.n_edges g)

let test_discovery_with_silent_byz () =
  (* A line of honest nodes with silent Byzantine leaves hanging off it:
     discovery must still complete (honest component connected). *)
  let g = Graph.create () in
  for v = 0 to 9 do
    if v > 0 then ignore (Graph.add_edge g (v - 1) v)
  done;
  ignore (Graph.add_edge g 3 100);
  ignore (Graph.add_edge g 7 101);
  let byz = byz_set [ 100; 101 ] B.Silent in
  let r = Discovery.run g ~byzantine:byz () in
  checkb "complete despite silent byz" true r.Discovery.complete

let test_discovery_disconnected_honest_rejected () =
  (* Two honest nodes joined only through a Byzantine cut vertex...
     actually edges adjacent to an honest endpoint are usable, so to break
     the precondition the honest nodes must be in different components of
     the honest-adjacent graph: two honest islands bridged by a byz-byz
     edge. *)
  let g = Graph.create () in
  ignore (Graph.add_edge g 0 100);
  ignore (Graph.add_edge g 100 101);
  ignore (Graph.add_edge g 101 1);
  let byz = byz_set [ 100; 101 ] B.Silent in
  Alcotest.check_raises "precondition enforced"
    (Failure "Discovery.run: honest nodes are not a connected component") (fun () ->
      ignore (Discovery.run g ~byzantine:byz ()))

let test_discovery_ring_rounds () =
  let g = Gen.ring ~n:16 in
  let r = Discovery.run g ~byzantine:(fun _ -> None) () in
  checkb "complete" true r.Discovery.complete;
  checki "diameter bound" 8 r.Discovery.honest_diameter_bound;
  checkb "rounds track the diameter" true
    (r.Discovery.rounds >= 8 && r.Discovery.rounds <= 11)

let test_discovery_counts_messages () =
  let g = Gen.complete ~n:6 in
  let ledger = Metrics.Ledger.create () in
  let r = Discovery.run g ~byzantine:(fun _ -> None) ~ledger () in
  checkb "ledger used" true
    (Metrics.Ledger.label_messages ledger "discovery" = r.Discovery.messages);
  (* Complete graph: everyone knows everyone after the bootstrap, but the
     flood still confirms each id once per edge direction. *)
  checkb "messages positive" true (r.Discovery.messages > 0)

let suite =
  [
    Alcotest.test_case "discovery all honest" `Quick test_discovery_all_honest;
    Alcotest.test_case "discovery silent byz" `Quick test_discovery_with_silent_byz;
    Alcotest.test_case "discovery precondition" `Quick
      test_discovery_disconnected_honest_rejected;
    Alcotest.test_case "discovery ring rounds" `Quick test_discovery_ring_rounds;
    Alcotest.test_case "discovery message ledger" `Quick test_discovery_counts_messages;
  ]
