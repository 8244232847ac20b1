(* Tests for the applications built on the public NOW API, plus the
   baseline formulas. *)

module Engine = Now_core.Engine
module Node = Now_core.Node
module Params = Now_core.Params
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf_eps eps msg a b = Alcotest.check (Alcotest.float eps) msg a b

let make_engine ?(n0 = 300) ?(tau = 0.15) ?(seed = 3L) () =
  let params =
    Params.make ~n_max:(1 lsl 10) ~k:3 ~tau ~walk_mode:Params.Direct_sample ()
  in
  let rng = Rng.create seed in
  let initial =
    List.init n0 (fun _ ->
        if Rng.bernoulli rng tau then Node.Byzantine else Node.Honest)
  in
  Engine.create ~seed params ~initial

(* ---------- broadcast ---------- *)

let test_broadcast_reaches_all () =
  let e = make_engine () in
  let b = Apps.Broadcast.run e ~origin:(Engine.random_node e) in
  checkb "all clusters reached" true b.Apps.Broadcast.all_reached;
  checki "count matches" (Engine.n_clusters e) b.Apps.Broadcast.clusters_reached;
  checkb "byzantine-proof with healthy clusters" true b.Apps.Broadcast.byzantine_proof;
  checkb "rounds positive" true (b.Apps.Broadcast.rounds > 0)

let test_broadcast_beats_flooding () =
  let e = make_engine ~n0:600 () in
  let b = Apps.Broadcast.run e ~origin:(Engine.random_node e) in
  let flat = Baseline.unclustered_broadcast_messages ~n:600 in
  checkb "clustered wins at n=600" true (b.Apps.Broadcast.messages < flat)

let test_broadcast_unsafe_flagged () =
  (* Build an engine, then corrupt a cluster's honest majority on paper by
     using a high-tau population: with tau = 0.3 and tiny clusters some
     cluster is likely to violate; loop until one does. *)
  let rec attempt seed =
    if Int64.to_int seed > 40 then ()
    else begin
      let e = make_engine ~tau:0.3 ~seed () in
      if Engine.violations_now e > 0 then begin
        let b = Apps.Broadcast.run e ~origin:(Engine.random_node e) in
        checkb "unsafe flagged" false b.Apps.Broadcast.byzantine_proof
      end
      else attempt (Int64.add seed 1L)
    end
  in
  attempt 4L

(* ---------- sampling ---------- *)

let test_sampling_valid_nodes () =
  let e = make_engine () in
  for _ = 1 to 20 do
    let s = Apps.Sampling.sample e in
    checkb "sampled node present" true
      (Node.Roster.is_present (Engine.roster e) s.Apps.Sampling.node);
    checkb "cost positive" true (s.Apps.Sampling.messages > 0)
  done

let test_sampling_near_uniform () =
  let e = make_engine ~n0:150 () in
  let counts = Hashtbl.create 256 in
  let trials = 3000 in
  for _ = 1 to trials do
    let s = Apps.Sampling.sample e in
    Hashtbl.replace counts s.Apps.Sampling.node
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.Apps.Sampling.node))
  done;
  (* Each node expected 20 times; coverage must be broad. *)
  checkb "wide coverage" true (Hashtbl.length counts > 130);
  Hashtbl.iter
    (fun _ c -> checkb "no node dominates" true (c < 60))
    counts

(* ---------- aggregation ---------- *)

let test_aggregate_exact_when_honest_inputs () =
  let e = make_engine () in
  let r =
    Apps.Aggregate.sum e ~value:(fun _ -> 1.0) ~byz_claim:(fun _ -> 1.0)
  in
  checkf_eps 1e-6 "counts the population" (float_of_int (Engine.n_nodes e)) r.Apps.Aggregate.result;
  checkf_eps 1e-6 "full sum matches" r.Apps.Aggregate.full_sum r.Apps.Aggregate.result

let test_aggregate_error_bounded () =
  let e = make_engine () in
  let r = Apps.Aggregate.sum e ~value:(fun _ -> 1.0) ~byz_claim:(fun _ -> 5.0) in
  let err = abs_float (r.Apps.Aggregate.result -. r.Apps.Aggregate.full_sum) in
  checkb "error within bound" true (err <= r.Apps.Aggregate.error_bound +. 1e-6);
  checkb "bound positive with liars" true (r.Apps.Aggregate.error_bound > 0.0);
  checkb "honest sum below full" true
    (r.Apps.Aggregate.honest_sum < r.Apps.Aggregate.full_sum)

let test_aggregate_cost_subquadratic () =
  let e = make_engine ~n0:600 () in
  let r = Apps.Aggregate.sum e ~value:(fun _ -> 0.0) ~byz_claim:(fun _ -> 0.0) in
  checkb "cheaper than n^2" true (r.Apps.Aggregate.messages < 600 * 599)

(* ---------- vote ---------- *)

let test_vote_unanimous () =
  let e = make_engine () in
  let r = Apps.Vote.run e ~vote:(fun _ -> true) ~byz_vote:(fun _ -> true) () in
  checkb "decision true" true r.Apps.Vote.decision;
  checki "total is population" (Engine.n_nodes e) r.Apps.Vote.total

let test_vote_majority () =
  let e = make_engine () in
  (* Honest nodes vote false; byzantine (15%) vote true: false wins. *)
  let r = Apps.Vote.run e ~vote:(fun _ -> false) ~byz_vote:(fun _ -> true) () in
  checkb "minority cannot flip" false r.Apps.Vote.decision;
  checkb "ones counted" true (r.Apps.Vote.ones > 0)

let test_vote_costs () =
  let e = make_engine ~n0:600 () in
  let r = Apps.Vote.run e ~vote:(fun node -> node mod 2 = 0) () in
  checkb "cheaper than n^2" true (r.Apps.Vote.messages < 600 * 599);
  checkb "rounds positive" true (r.Apps.Vote.rounds > 0)

(* ---------- baselines ---------- *)

let test_baseline_formulas () =
  checki "flood" (100 * 99) (Baseline.unclustered_broadcast_messages ~n:100);
  checki "sample" 100 (Baseline.unclustered_sample_messages ~n:100)

let suite =
  [
    Alcotest.test_case "broadcast reaches all" `Quick test_broadcast_reaches_all;
    Alcotest.test_case "broadcast beats flooding" `Quick test_broadcast_beats_flooding;
    Alcotest.test_case "broadcast unsafe flagged" `Quick test_broadcast_unsafe_flagged;
    Alcotest.test_case "sampling valid nodes" `Quick test_sampling_valid_nodes;
    Alcotest.test_case "sampling near uniform" `Quick test_sampling_near_uniform;
    Alcotest.test_case "aggregate exact" `Quick test_aggregate_exact_when_honest_inputs;
    Alcotest.test_case "aggregate error bounded" `Quick test_aggregate_error_bounded;
    Alcotest.test_case "aggregate cost" `Quick test_aggregate_cost_subquadratic;
    Alcotest.test_case "vote unanimous" `Quick test_vote_unanimous;
    Alcotest.test_case "vote majority" `Quick test_vote_majority;
    Alcotest.test_case "vote costs" `Quick test_vote_costs;
    Alcotest.test_case "baseline formulas" `Quick test_baseline_formulas;
  ]
