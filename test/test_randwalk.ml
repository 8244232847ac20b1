(* Tests for the continuous-time random walk machinery. *)

module Ctrw = Randwalk.Ctrw
module Graph = Dsgraph.Graph
module Gen = Dsgraph.Gen
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_zero_duration () =
  let g = Gen.ring ~n:10 in
  let rng = Rng.of_int 1 in
  let v, hops = Ctrw.walk g rng ~start:3 ~duration:0.0 () in
  checki "stays put" 3 v;
  checki "no hops" 0 hops

let test_isolated_vertex () =
  let g = Graph.create () in
  Graph.add_vertex g 7;
  let rng = Rng.of_int 2 in
  let v, hops = Ctrw.walk g rng ~start:7 ~duration:100.0 () in
  checki "isolated stays" 7 v;
  checki "no hops" 0 hops

let test_walk_stays_on_graph () =
  let rng = Rng.of_int 3 in
  let g = Gen.erdos_renyi_connected rng ~n:30 ~p:0.2 in
  for _ = 1 to 50 do
    let v, _ = Ctrw.walk g rng ~start:0 ~duration:5.0 () in
    checkb "endpoint on graph" true (Graph.has_vertex g v)
  done

let test_on_hop_counts () =
  let g = Gen.ring ~n:6 in
  let rng = Rng.of_int 4 in
  let observed = ref 0 in
  let _, hops =
    Ctrw.walk g rng ~start:0 ~duration:10.0
      ~on_hop:(fun u v ->
        incr observed;
        checkb "hop along edge" true (Graph.has_edge g u v))
      ()
  in
  checki "on_hop per hop" hops !observed;
  checkb "walk moved" true (hops > 0)

let test_uniform_endpoint_irregular () =
  (* A star plus ring (very irregular degrees): the CTRW endpoint must
     still be near-uniform — the property the paper uses. *)
  let g = Gen.ring ~n:20 in
  for v = 1 to 10 do
    ignore (Graph.add_edge g 0 v)
  done;
  let rng = Rng.of_int 5 in
  let trials = 20_000 in
  let counts = Ctrw.endpoint_counts g rng ~start:0 ~duration:60.0 ~trials in
  let vs = Graph.vertices g in
  let tv =
    Ctrw.tv_distance_to ~counts ~target:(fun _ -> 1.0 /. 20.0) ~vertices:vs
  in
  checkb (Printf.sprintf "TV to uniform small (%.3f)" tv) true (tv < 0.06)

let test_biased_select_proportional () =
  let g = Gen.complete ~n:4 in
  let rng = Rng.of_int 6 in
  let weight = function 0 -> 1.0 | 1 -> 2.0 | 2 -> 3.0 | _ -> 4.0 in
  let counts = Array.make 4 0 in
  let trials = 8000 in
  for _ = 1 to trials do
    let v =
      Ctrw.biased_select g rng ~start:0 ~duration:8.0 ~weight ~max_weight:4.0 ()
    in
    counts.(v) <- counts.(v) + 1
  done;
  (* Expected proportions 0.1, 0.2, 0.3, 0.4. *)
  Array.iteri
    (fun i c ->
      let expected = weight i /. 10.0 in
      let got = float_of_int c /. float_of_int trials in
      checkb
        (Printf.sprintf "vertex %d: got %.3f expected %.3f" i got expected)
        true
        (abs_float (got -. expected) < 0.03))
    counts

let test_biased_select_restart_hook () =
  let g = Gen.complete ~n:3 in
  let rng = Rng.of_int 7 in
  let restarts = ref 0 in
  (* Tiny weights force many rejections. *)
  for _ = 1 to 20 do
    ignore
      (Ctrw.biased_select g rng ~start:0 ~duration:2.0
         ~weight:(fun _ -> 1.0)
         ~max_weight:50.0
         ~on_restart:(fun _ -> incr restarts)
         ())
  done;
  checkb "restarts observed" true (!restarts > 0)

let test_biased_select_max_restarts () =
  let g = Gen.complete ~n:3 in
  let rng = Rng.of_int 8 in
  Alcotest.check_raises "restart budget"
    (Failure "Ctrw.biased_select: too many rejections (is max_weight too large?)")
    (fun () ->
      ignore
        (Ctrw.biased_select g rng ~start:0 ~duration:1.0
           ~weight:(fun _ -> 0.0)
           ~max_weight:1.0 ~max_restarts:5 ()))

let test_biased_select_invalid_weight () =
  let g = Gen.complete ~n:3 in
  let rng = Rng.of_int 9 in
  Alcotest.check_raises "bad max_weight"
    (Invalid_argument "Ctrw.biased_select: max_weight must be positive") (fun () ->
      ignore
        (Ctrw.biased_select g rng ~start:0 ~duration:1.0
           ~weight:(fun _ -> 1.0)
           ~max_weight:0.0 ()))

let test_endpoint_counts_total () =
  let g = Gen.ring ~n:5 in
  let rng = Rng.of_int 10 in
  let counts = Ctrw.endpoint_counts g rng ~start:0 ~duration:3.0 ~trials:500 in
  let total = Hashtbl.fold (fun _ c acc -> acc + c) counts 0 in
  checki "totals" 500 total

let test_tv_distance () =
  let counts = Hashtbl.create 4 in
  Hashtbl.replace counts 0 50;
  Hashtbl.replace counts 1 50;
  let tv_same =
    Ctrw.tv_distance_to ~counts ~target:(fun _ -> 0.5) ~vertices:[ 0; 1 ]
  in
  Alcotest.check (Alcotest.float 1e-9) "identical" 0.0 tv_same;
  let tv_far =
    Ctrw.tv_distance_to ~counts
      ~target:(fun v -> if v = 0 then 1.0 else 0.0)
      ~vertices:[ 0; 1 ]
  in
  Alcotest.check (Alcotest.float 1e-9) "half off" 0.5 tv_far

let suite =
  [
    Alcotest.test_case "zero duration" `Quick test_zero_duration;
    Alcotest.test_case "isolated vertex" `Quick test_isolated_vertex;
    Alcotest.test_case "stays on graph" `Quick test_walk_stays_on_graph;
    Alcotest.test_case "on_hop counting" `Quick test_on_hop_counts;
    Alcotest.test_case "uniform endpoint on irregular graph" `Quick
      test_uniform_endpoint_irregular;
    Alcotest.test_case "biased select proportional" `Quick test_biased_select_proportional;
    Alcotest.test_case "restart hook" `Quick test_biased_select_restart_hook;
    Alcotest.test_case "restart budget" `Quick test_biased_select_max_restarts;
    Alcotest.test_case "invalid max_weight" `Quick test_biased_select_invalid_weight;
    Alcotest.test_case "endpoint counts total" `Quick test_endpoint_counts_total;
    Alcotest.test_case "tv distance" `Quick test_tv_distance;
  ]
