(* Tests for the message-level cluster primitives: validated channels,
   randNum, the biased walk, exchange. *)

module Config = Cluster.Config
module Valchan = Cluster.Valchan
module Randnum = Cluster.Randnum
module Walk = Cluster.Walk
module Exchange = Cluster.Exchange
module B = Agreement.Byz_behavior
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let build ?(seed = 1) ?(n_clusters = 4) ?(cluster_size = 9) ?(byz = 2) ?(degree = 3) () =
  Config.build_uniform ~rng:(Rng.of_int seed) ~n_clusters ~cluster_size
    ~byz_per_cluster:byz ~overlay_degree:degree ()

(* ---------- Config ---------- *)

let test_build_uniform () =
  let cfg = build () in
  checki "clusters" 4 (List.length (Config.cluster_ids cfg));
  checki "nodes" 36 (Config.n_nodes cfg);
  checki "sizes" 9 (Config.size cfg 0);
  checkb "byz tagged" true (Config.is_byzantine cfg 0);
  checkb "honest tagged" false (Config.is_byzantine cfg 8);
  checkb "honest majority" true (Config.honest_majority cfg 0)

let test_build_validation () =
  let overlay = Dsgraph.Graph.create () in
  Dsgraph.Graph.add_vertex overlay 0;
  Alcotest.check_raises "node in two clusters"
    (Invalid_argument "Config.make: node in several clusters") (fun () ->
      ignore
        (Config.make ~rng:(Rng.of_int 1)
           ~byzantine:(fun _ -> None)
           ~clusters:[ (0, [ 1; 1 ]) ]
           ~overlay ()))

let test_move_and_swap () =
  let cfg = build () in
  let home = Config.cluster_of cfg 0 in
  checki "initial home" 0 home;
  Config.move_node cfg ~node:0 ~to_cluster:2;
  checki "moved" 2 (Config.cluster_of cfg 0);
  checki "source shrank" 8 (Config.size cfg 0);
  checki "dest grew" 10 (Config.size cfg 2);
  Config.swap_nodes cfg 0 1;
  checki "swap back" 0 (Config.cluster_of cfg 0);
  checki "swap forward" 2 (Config.cluster_of cfg 1);
  (* A swap preserves sizes (it does not undo the earlier move). *)
  checki "source size preserved" 8 (Config.size cfg 0);
  checki "dest size preserved" 10 (Config.size cfg 2)

let test_honest_majority_flip () =
  let cfg = build ~cluster_size:9 ~byz:3 () in
  (* 3 of 9 byzantine: honest = 6 = exactly 2/3 — NOT more than 2/3. *)
  checkb "2/3 exactly is not a majority" false (Config.honest_majority cfg 0)

(* ---------- Validated channel ---------- *)

let test_validate_rule () =
  let members = [ 1; 2; 3; 4; 5 ] in
  checkb "majority accepted" true
    (Valchan.validate ~members ~inbox:[ (1, 7); (2, 7); (3, 7); (4, 9) ] = Some 7);
  checkb "half is not enough" true
    (Valchan.validate ~members ~inbox:[ (1, 7); (2, 7) ] = None);
  checkb "non-members ignored" true
    (Valchan.validate ~members ~inbox:[ (9, 7); (10, 7); (11, 7) ] = None);
  checkb "duplicate votes collapse" true
    (Valchan.validate ~members ~inbox:[ (1, 7); (1, 7); (1, 7) ] = None)

let test_transmit_honest () =
  let cfg = build ~byz:0 () in
  let r = Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload:42 () in
  checkb "unanimous" true (r.Valchan.unanimous = Some 42);
  checki "all honest verdicts" 9 (List.length r.Valchan.verdicts)

let test_transmit_with_minority_byz () =
  (* 2 of 9 Byzantine in the source: the honest 7 > 9/2 carry the payload. *)
  let cfg = build ~byz:2 () in
  let r = Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload:5 () in
  checkb "payload still accepted" true (r.Valchan.unanimous = Some 5)

let test_transmit_byz_majority_fails () =
  (* 5 of 9 Byzantine (silent): only 4 honest senders <= 9/2 — receivers
     must reject.  This is the negative control: a cluster that lost its
     honest majority cannot speak. *)
  let byz node = if node mod 9 < 5 then Some B.Silent else None in
  let clusters = List.init 2 (fun cid -> (cid, List.init 9 (fun i -> (cid * 9) + i))) in
  let overlay = Dsgraph.Graph.create () in
  ignore (Dsgraph.Graph.add_edge overlay 0 1);
  let cfg =
    Config.make ~rng:(Rng.of_int 3) ~byzantine:byz ~clusters ~overlay ()
  in
  let r = Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload:5 () in
  checkb "no unanimity" true (r.Valchan.unanimous = None);
  List.iter (fun (_, v) -> checkb "each rejects" true (v = None)) r.Valchan.verdicts

let test_transmit_counts_messages () =
  let cfg = build ~byz:0 () in
  let before = Metrics.Ledger.total_messages (Config.ledger cfg) in
  ignore (Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload:1 ());
  let sent = Metrics.Ledger.total_messages (Config.ledger cfg) - before in
  checki "|src| * |dst| messages" 81 sent

(* ---------- randNum ---------- *)

let test_randnum_secure () =
  let cfg = build ~byz:2 () in
  let o = Randnum.run cfg ~cluster:0 ~range:100 in
  checkb "secure with < 2/3 byz" true o.Randnum.secure;
  checkb "in range" true (o.Randnum.value >= 0 && o.Randnum.value < 100)

let test_randnum_uniformity () =
  let cfg = build ~byz:2 () in
  let counts = Array.make 10 0 in
  for _ = 1 to 3000 do
    let o = Randnum.run cfg ~cluster:0 ~range:10 in
    counts.(o.Randnum.value) <- counts.(o.Randnum.value) + 1
  done;
  Array.iteri
    (fun i c ->
      checkb (Printf.sprintf "bin %d near 300" i) true (abs (c - 300) < 100))
    counts

let test_randnum_insecure () =
  let byz node = if node < 7 then Some (B.Fixed 3) else None in
  let clusters = [ (0, List.init 9 (fun i -> i)) ] in
  let overlay = Dsgraph.Graph.create () in
  Dsgraph.Graph.add_vertex overlay 0;
  let cfg = Config.make ~rng:(Rng.of_int 4) ~byzantine:byz ~clusters ~overlay () in
  let o = Randnum.run cfg ~cluster:0 ~range:100 in
  checkb "flagged insecure at >= 2/3 byz" false o.Randnum.secure

let test_randnum_byz_cannot_skew_much () =
  (* Byzantine members fix their contributions; since one honest
     contribution randomises the mix, the output stays near-uniform. *)
  let byz node = if node mod 9 < 2 then Some (B.Fixed 12345) else None in
  let clusters = [ (0, List.init 9 (fun i -> i)) ] in
  let overlay = Dsgraph.Graph.create () in
  Dsgraph.Graph.add_vertex overlay 0;
  let cfg = Config.make ~rng:(Rng.of_int 5) ~byzantine:byz ~clusters ~overlay () in
  let low = ref 0 in
  let trials = 2000 in
  for _ = 1 to trials do
    let o = Randnum.run cfg ~cluster:0 ~range:2 in
    if o.Randnum.value = 0 then incr low
  done;
  checkb "near fair coin" true (abs (!low - (trials / 2)) < trials / 10)

let test_randnum_validation () =
  let cfg = build () in
  Alcotest.check_raises "bad range" (Invalid_argument "Randnum.run: range must be positive")
    (fun () -> ignore (Randnum.run cfg ~cluster:0 ~range:0))

let test_mix_deterministic () =
  checki "same input same output" (Randnum.mix [ 1; 2; 3 ] ~range:1000)
    (Randnum.mix [ 1; 2; 3 ] ~range:1000);
  checkb "order matters" true
    (Randnum.mix [ 1; 2; 3 ] ~range:1_000_000 <> Randnum.mix [ 3; 2; 1 ] ~range:1_000_000)

(* ---------- the sessions' trace events ----------

   Every event one randNum draw and one walk.token transfer emit under a
   net-detail collector, against test/golden/session_net_detail.jsonl:
   the spans with their message and round charges, the [byz.*] points,
   and the kernel-format [net.round], [net.byz.*] and [net.send.*] points
   in send order.  Cluster 0 has six members, one [Silent] (it escrows
   nothing, so the draw charges 2 * 5 * 5 = 50 messages) and one
   [Fixed]; cluster 1's sources include an equivocating and a
   misrouting member. *)

let session_config () =
  let byz = function
    | 1 -> Some B.Silent
    | 4 -> Some (B.Fixed 9)
    | 10 -> Some (B.Equivocate (3, 4))
    | 11 -> Some (B.Misroute_walk 5)
    | _ -> None
  in
  let clusters =
    [ (0, List.init 6 (fun i -> i)); (1, [ 10; 11; 12; 13 ]); (2, [ 20; 21; 22 ]) ]
  in
  let overlay = Dsgraph.Graph.create () in
  ignore (Dsgraph.Graph.add_edge overlay 0 1);
  ignore (Dsgraph.Graph.add_edge overlay 1 2);
  Config.make ~rng:(Rng.of_int 7) ~byzantine:byz ~clusters ~overlay ()

let test_session_events_golden () =
  let cfg = session_config () in
  let (), dump =
    Trace.profiled ~net_detail:true (fun () ->
        ignore (Randnum.run cfg ~cluster:0 ~range:100);
        ignore
          (Valchan.transmit cfg ~src_cluster:1 ~dst_cluster:2 ~label:"walk.token"
             ~payload:7 ()))
  in
  checki "nothing dropped" 0 dump.Trace.dropped;
  checki "randnum charge" 50
    (Metrics.Ledger.label_messages (Config.ledger cfg) "randnum");
  let golden =
    In_channel.with_open_bin "golden/session_net_detail.jsonl" In_channel.input_all
  in
  Alcotest.check Alcotest.string "events = golden" golden (Trace.to_jsonl dump)

(* ---------- walk / randCl ---------- *)

let test_rand_cl_selects_cluster () =
  let cfg = build ~byz:2 () in
  match Walk.rand_cl cfg ~start:0 with
  | Ok s ->
    checkb "valid cluster" true (List.mem s.Walk.selected (Config.cluster_ids cfg));
    checkb "restart count sane" true (s.Walk.restarts >= 0)
  | Error _ -> Alcotest.fail "walk should succeed"

let test_rand_cl_proportional () =
  (* Clusters of different sizes: selection must be proportional. *)
  let sizes = [ (0, 6); (1, 12) ] in
  let clusters =
    List.map (fun (cid, s) -> (cid, List.init s (fun i -> (cid * 100) + i))) sizes
  in
  let overlay = Dsgraph.Graph.create () in
  ignore (Dsgraph.Graph.add_edge overlay 0 1);
  let cfg =
    Config.make ~rng:(Rng.of_int 6) ~byzantine:(fun _ -> None) ~clusters ~overlay ()
  in
  let big = ref 0 in
  let trials = 600 in
  for _ = 1 to trials do
    match Walk.rand_cl cfg ~start:0 with
    | Ok s -> if s.Walk.selected = 1 then incr big
    | Error _ -> Alcotest.fail "walk failed"
  done;
  let frac = float_of_int !big /. float_of_int trials in
  checkb (Printf.sprintf "larger cluster ~2/3 (%.2f)" frac) true
    (abs_float (frac -. (2.0 /. 3.0)) < 0.1)

let test_pick_node_uniformish () =
  let cfg = build ~n_clusters:3 ~cluster_size:5 ~byz:0 () in
  let counts = Hashtbl.create 15 in
  let trials = 1200 in
  for _ = 1 to trials do
    match Walk.pick_node cfg ~start:0 with
    | Ok node ->
      Hashtbl.replace counts node
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts node))
    | Error _ -> Alcotest.fail "pick failed"
  done;
  checki "every node reachable" 15 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c -> checkb "roughly uniform" true (abs (c - 80) < 45))
    counts

let test_walk_validation_failure () =
  (* A byzantine-majority cluster on the only path: the token cannot be
     validated, the walk reports which cluster broke. *)
  let byz node = if node >= 100 && node < 105 then Some B.Silent else None in
  let clusters =
    [ (0, List.init 9 (fun i -> i)); (1, List.init 7 (fun i -> 100 + i)) ]
  in
  let overlay = Dsgraph.Graph.create () in
  ignore (Dsgraph.Graph.add_edge overlay 0 1);
  let cfg = Config.make ~rng:(Rng.of_int 7) ~byzantine:byz ~clusters ~overlay () in
  (* Walk long enough that a hop 0 -> 1 is essentially certain; then the
     next hop 1 -> 0 cannot be validated (only 2 honest senders of 7). *)
  let rec attempt k =
    if k = 0 then checkb "no validation failure seen" false true
    else
      match Walk.rand_cl ~duration:50.0 cfg ~start:0 with
      | Error (`Validation_failed c) -> checki "cluster 1 blamed" 1 c
      | Error `Too_many_restarts -> Alcotest.fail "unexpected restart exhaustion"
      | Ok _ -> attempt (k - 1)
  in
  attempt 20

let test_transmit_mixed_strategies () =
  (* A cluster whose Byzantine minority mixes all four behaviours at once:
     the honest majority still carries the payload. *)
  let strategies = [| B.Silent; B.Fixed 9; B.Equivocate (1, 2); B.Random_noise 3 |] in
  let byz node = if node < 4 then Some strategies.(node) else None in
  let clusters =
    [ (0, List.init 13 (fun i -> i)); (1, List.init 13 (fun i -> 100 + i)) ]
  in
  let overlay = Dsgraph.Graph.create () in
  ignore (Dsgraph.Graph.add_edge overlay 0 1);
  let cfg = Config.make ~rng:(Rng.of_int 8) ~byzantine:byz ~clusters ~overlay () in
  let r = Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload:6 () in
  checkb "mixed byz minority defeated" true (r.Valchan.unanimous = Some 6)

(* ---------- exchange ---------- *)

let test_exchange_node_preserves_sizes () =
  let cfg = build ~byz:1 () in
  let sizes_before = List.map (Config.size cfg) (Config.cluster_ids cfg) in
  (match Exchange.exchange_node cfg ~node:3 with
  | Ok dest -> checkb "dest is a cluster" true (List.mem dest (Config.cluster_ids cfg))
  | Error _ -> Alcotest.fail "exchange failed");
  let sizes_after = List.map (Config.size cfg) (Config.cluster_ids cfg) in
  Alcotest.check (Alcotest.list Alcotest.int) "sizes preserved" sizes_before sizes_after

let test_exchange_all_touches () =
  let cfg = build ~n_clusters:5 ~byz:1 () in
  match Exchange.exchange_all cfg ~cluster:0 with
  | Ok touched ->
    List.iter
      (fun c ->
        checkb "touched are real clusters" true (List.mem c (Config.cluster_ids cfg));
        checkb "self not in touched" true (c <> 0))
      touched;
    checki "membership conserved" 45 (Config.n_nodes cfg)
  | Error _ -> Alcotest.fail "exchange_all failed"

let test_exchange_all_charges_views () =
  let cfg = build ~byz:0 () in
  (match Exchange.exchange_all cfg ~cluster:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "exchange failed");
  checkb "view updates charged" true
    (Metrics.Ledger.label_messages (Config.ledger cfg) "exchange.view_update" > 0)

let test_exchange_refreshes_composition () =
  (* After a full exchange, the original members are (mostly) scattered. *)
  let cfg = build ~n_clusters:6 ~cluster_size:8 ~byz:0 () in
  let before = Config.members cfg 0 in
  (match Exchange.exchange_all cfg ~cluster:0 with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "exchange failed");
  let after = Config.members cfg 0 in
  let stayed = List.length (List.filter (fun x -> List.mem x after) before) in
  checkb "most members replaced" true (stayed < 5);
  checki "size preserved" 8 (List.length after)

let suite =
  [
    Alcotest.test_case "build uniform" `Quick test_build_uniform;
    Alcotest.test_case "build validation" `Quick test_build_validation;
    Alcotest.test_case "move and swap" `Quick test_move_and_swap;
    Alcotest.test_case "honest majority boundary" `Quick test_honest_majority_flip;
    Alcotest.test_case "validate rule" `Quick test_validate_rule;
    Alcotest.test_case "transmit honest" `Quick test_transmit_honest;
    Alcotest.test_case "transmit with byz minority" `Quick test_transmit_with_minority_byz;
    Alcotest.test_case "transmit byz majority fails" `Quick test_transmit_byz_majority_fails;
    Alcotest.test_case "transmit message count" `Quick test_transmit_counts_messages;
    Alcotest.test_case "transmit mixed byz strategies" `Quick
      test_transmit_mixed_strategies;
    Alcotest.test_case "randnum secure" `Quick test_randnum_secure;
    Alcotest.test_case "randnum uniformity" `Quick test_randnum_uniformity;
    Alcotest.test_case "randnum insecure flag" `Quick test_randnum_insecure;
    Alcotest.test_case "randnum byz influence bounded" `Quick test_randnum_byz_cannot_skew_much;
    Alcotest.test_case "randnum validation" `Quick test_randnum_validation;
    Alcotest.test_case "mix deterministic" `Quick test_mix_deterministic;
    Alcotest.test_case "session events match the golden rendering" `Quick
      test_session_events_golden;
    Alcotest.test_case "rand_cl selects" `Quick test_rand_cl_selects_cluster;
    Alcotest.test_case "rand_cl proportional" `Quick test_rand_cl_proportional;
    Alcotest.test_case "pick_node uniform-ish" `Quick test_pick_node_uniformish;
    Alcotest.test_case "walk validation failure" `Quick test_walk_validation_failure;
    Alcotest.test_case "exchange preserves sizes" `Quick test_exchange_node_preserves_sizes;
    Alcotest.test_case "exchange_all touches" `Quick test_exchange_all_touches;
    Alcotest.test_case "exchange_all charges views" `Quick test_exchange_all_charges_views;
    Alcotest.test_case "exchange refreshes composition" `Quick
      test_exchange_refreshes_composition;
  ]
