(* The fault-injection layer: behaviour catalogue semantics, the
   honest-side guarantees under active deviation (equivocation safety,
   stall detection, walk retries), and the observability contract (every
   injected deviation emits a trace point / deviant-send count). *)

module Config = Cluster.Config
module Valchan = Cluster.Valchan
module Randnum = Cluster.Randnum
module Walk = Cluster.Walk
module Net = Simkernel.Net
module B = Agreement.Byz_behavior
module Graph = Dsgraph.Graph
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Two clusters of [n] on a single edge; the first [byz] members of the
   source cluster run [behavior]. *)
let pair_config ?(seed = 3) ~n ~byz ~behavior () =
  let src = List.init n (fun i -> i) in
  let dst = List.init n (fun i -> 100 + i) in
  let byzantine node = if node >= 0 && node < byz then Some (behavior node) else None in
  let overlay = Graph.create () in
  ignore (Graph.add_edge overlay 0 1);
  Config.make ~rng:(Rng.of_int seed) ~byzantine ~clusters:[ (0, src); (1, dst) ]
    ~overlay ()

let single_config ?(seed = 5) ~n ~byz ~behavior () =
  let ids = List.init n (fun i -> i) in
  let byzantine node = if node >= 0 && node < byz then Some (behavior node) else None in
  let overlay = Graph.create () in
  Graph.add_vertex overlay 0;
  Config.make ~rng:(Rng.of_int seed) ~byzantine ~clusters:[ (0, ids) ] ~overlay ()

(* ---------- the equivocation safety property ---------- *)

(* An equivocating minority (at most half of the senders) can never get
   ANY forged payload accepted, let alone two different ones: acceptance
   needs a strict majority of identical messages. *)
let prop_equivocation_cannot_split =
  QCheck.Test.make
    ~name:"equivocating <= n/2 senders never get a forged payload accepted"
    ~count:200
    QCheck.(
      quad (int_range 4 21) small_int (int_range 0 1_000) (int_range 0 1_000))
    (fun (n, byz_raw, v1, v2) ->
      let byz = byz_raw mod ((n / 2) + 1) in
      let behavior _node = B.Equivocate (10_000 + v1, 20_000 + v2) in
      let cfg = pair_config ~seed:(n + byz_raw) ~n ~byz ~behavior () in
      let payload = 1 + (v1 mod 1_000) in
      let res = Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload () in
      List.for_all
        (fun (_, verdict) -> verdict = None || verdict = Some payload)
        res.Valchan.verdicts)

(* Past the majority threshold equivocation does split the receivers —
   the guard above is tight. *)
let test_equivocation_splits_past_majority () =
  let behavior _ = B.Equivocate (10_001, 10_002) in
  let cfg = pair_config ~n:15 ~byz:9 ~behavior () in
  let res = Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload:7 () in
  let accepted =
    List.filter_map snd res.Valchan.verdicts |> List.sort_uniq compare
  in
  checkb "two distinct forged payloads accepted" true
    (List.length accepted = 2 && List.mem 10_001 accepted && List.mem 10_002 accepted);
  checkb "not unanimous" true (res.Valchan.unanimous = None)

(* ---------- randNum stall detection ---------- *)

let test_silent_third_stalls_randnum () =
  (* 6 of 15 withhold: participants 9, 3*9 < 2*15 — every honest member
     sees the reconstruction quorum fail. *)
  let cfg = single_config ~n:15 ~byz:6 ~behavior:(fun _ -> B.Silent) () in
  let o = Randnum.run cfg ~cluster:0 ~range:100 in
  checkb "stalled" true o.Randnum.stalled;
  checki "participants" 9 o.Randnum.participants;
  checkb "still below the 2/3 security bound" true o.Randnum.secure;
  (* 5 of 15: quorum met, no stall. *)
  let cfg = single_config ~n:15 ~byz:5 ~behavior:(fun _ -> B.Silent) () in
  let o = Randnum.run cfg ~cluster:0 ~range:100 in
  checkb "not stalled" false o.Randnum.stalled;
  checki "participants" 10 o.Randnum.participants

let test_bias_share_constant () =
  (* Bias_share contributes its constant; with one honest member the mix
     is still uniform, but the share itself must be the bias. *)
  checkb "share is the bias" true
    (B.share (B.Bias_share 7) (B.rng_of (B.Bias_share 7)) = Some 7);
  checkb "silent withholds" true (B.share B.Silent (B.rng_of B.Silent) = None)

(* ---------- legacy equivalence: on_channel vs value_for ---------- *)

let prop_on_channel_matches_value_for =
  QCheck.Test.make
    ~name:"legacy behaviours: on_channel reproduces value_for exactly"
    ~count:300
    QCheck.(
      quad (int_range 0 3) (int_range 0 40) (int_range 0 40) (int_range 0 100))
    (fun (which, dst, split_at, v) ->
      let strategy =
        match which with
        | 0 -> B.Silent
        | 1 -> B.Fixed v
        | 2 -> B.Equivocate (v, v + 1)
        | _ -> B.Random_noise (v + 1)
      in
      (* Two generators from the same seed: both sides must consume draws
         identically for configurations to replay bit-identically. *)
      let r1 = B.rng_of strategy and r2 = B.rng_of strategy in
      let expected = B.value_for strategy r1 ~dst ~split_at ~honest_value:v in
      let action = B.on_channel strategy r2 ~label:"valchan" ~dst ~split_at ~honest:v in
      match (expected, action) with
      | None, B.Stay_silent -> true
      | Some e, B.Forge a -> e = a
      | _ -> false)

(* ---------- label sensitivity of the primitive-targeting behaviours -- *)

let test_label_dispatch () =
  let rng () = B.rng_of (B.Drop_walk 1) in
  checkb "drop-walk silent on walk.token" true
    (B.on_channel (B.Drop_walk 1) (rng ()) ~label:"walk.token" ~dst:0 ~split_at:0
       ~honest:5
    = B.Stay_silent);
  checkb "drop-walk honest elsewhere" true
    (B.on_channel (B.Drop_walk 1) (rng ()) ~label:"valchan" ~dst:0 ~split_at:0
       ~honest:5
    = B.Honest_send);
  (match
     B.on_channel (B.Misroute_walk 1) (rng ()) ~label:"walk.token" ~dst:3
       ~split_at:0 ~honest:5
   with
  | B.Redirect sink -> checkb "misroute sink is never a node id" true (sink < 0)
  | _ -> Alcotest.fail "misroute-walk must redirect walk tokens");
  (match
     B.on_channel (B.Lie_views 1) (rng ()) ~label:"exchange.announce" ~dst:2
       ~split_at:0 ~honest:5
   with
  | B.Forge v -> checkb "view lie differs from honest" true (v <> 5)
  | _ -> Alcotest.fail "lie-views must forge exchange announcements");
  checkb "lie-views honest on walk tokens" true
    (B.on_channel (B.Lie_views 1) (rng ()) ~label:"walk.token" ~dst:2 ~split_at:0
       ~honest:5
    = B.Honest_send)

(* ---------- observability: deviation points and deviant sends ---------- *)

let count_marks dump pred =
  List.length
    (List.filter
       (function Trace.Mark { name; _ } -> pred name | Trace.Span _ -> false)
       (Trace.items dump))

let test_deviation_points_emitted () =
  let n = 15 and byz = 3 in
  let (), dump =
    Trace.profiled (fun () ->
        let cfg = pair_config ~n ~byz ~behavior:(fun _ -> B.Fixed 9_999) () in
        ignore (Valchan.transmit cfg ~src_cluster:0 ~dst_cluster:1 ~payload:1 ()))
  in
  (* One point per corrupted sender per receiver. *)
  checki "one byz.forge point per deviant send" (byz * n)
    (count_marks dump (fun name -> name = "byz.forge"))

let test_deviant_sends_counted () =
  let net, dump =
    Trace.profiled ~net_detail:true (fun () ->
        let net = Net.create () in
        Net.add_node net ~id:0 (fun ~round:_ ~inbox:_ -> ());
        Net.add_node net ~id:1 (fun ~round:_ ~inbox:_ -> ());
        Net.send net ~src:0 ~dst:1 7;
        Net.send net ~src:0 ~dst:1 ~deviant:true 8;
        Net.send net ~src:0 ~dst:1 ~deviant:true 9;
        net)
  in
  checki "messages" 3 (Net.messages_sent net);
  checki "sends traced" 3 (count_marks dump (fun name -> name = "net.send.msg"));
  checki "deviant" 2 (count_marks dump (fun name -> name = "net.byz.msg"))

(* ---------- walk retries ---------- *)

let test_walk_retries_then_blames () =
  (* Every cluster has a drop-walk majority: each hop attempt fails, the
     walk retries (max_hop_retries) with fresh draws, then blames the
     current cluster — and each retry leaves a walk.retry point. *)
  let (), dump =
    Trace.profiled (fun () ->
        let cfg =
          Config.build_uniform ~rng:(Rng.of_int 11)
            ~behavior:(fun node -> B.Drop_walk (node + 1))
            ~n_clusters:4 ~cluster_size:9 ~byz_per_cluster:6 ~overlay_degree:3 ()
        in
        match Walk.rand_cl ~duration:8.0 ~max_hop_retries:2 cfg ~start:0 with
        | Error (`Validation_failed c) ->
          checkb "blames a real cluster" true (List.mem c (Config.cluster_ids cfg))
        | Error `Too_many_restarts -> Alcotest.fail "expected a validation failure"
        | Ok _ -> Alcotest.fail "a corrupted-majority walk cannot succeed")
  in
  checki "both retries traced" 2 (count_marks dump (fun n -> n = "walk.retry"));
  checkb "drops traced" true (count_marks dump (fun n -> n = "byz.walk-drop") > 0)

let test_retries_recover_nothing_on_honest_runs () =
  (* Fault-free runs never enter the retry path. *)
  let cfg =
    Config.build_uniform ~rng:(Rng.of_int 13) ~n_clusters:4 ~cluster_size:9
      ~byz_per_cluster:0 ~overlay_degree:3 ()
  in
  match Walk.rand_cl cfg ~start:0 with
  | Ok s -> checki "no retries" 0 s.Walk.hop_retries
  | Error _ -> Alcotest.fail "honest walk failed"

(* ---------- catalogue / of_name ---------- *)

let test_of_name () =
  List.iter
    (fun name ->
      match B.of_name name with
      | Ok b -> Alcotest.check Alcotest.string "round-trip" name (B.name b)
      | Error msg -> Alcotest.fail msg)
    B.names;
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  (match B.of_name "no-such-behavior" with
  | Ok _ -> Alcotest.fail "must reject unknown names"
  | Error msg ->
    checkb "error lists the catalogue" true
      (List.for_all (fun name -> contains msg name) B.names));
  match Adversary.strategy_of_name "no-such-strategy" with
  | Ok _ -> Alcotest.fail "must reject unknown strategies"
  | Error msg -> checkb "mentions available" true (String.length msg > 0)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_equivocation_cannot_split;
    Alcotest.test_case "equivocation splits past majority" `Quick
      test_equivocation_splits_past_majority;
    Alcotest.test_case "silent > 1/3 stalls randnum" `Quick
      test_silent_third_stalls_randnum;
    Alcotest.test_case "share semantics" `Quick test_bias_share_constant;
    QCheck_alcotest.to_alcotest prop_on_channel_matches_value_for;
    Alcotest.test_case "label dispatch" `Quick test_label_dispatch;
    Alcotest.test_case "deviation points emitted" `Quick test_deviation_points_emitted;
    Alcotest.test_case "deviant sends counted" `Quick test_deviant_sends_counted;
    Alcotest.test_case "walk retries then blames" `Quick test_walk_retries_then_blames;
    Alcotest.test_case "honest walks never retry" `Quick
      test_retries_recover_nothing_on_honest_runs;
    Alcotest.test_case "behaviour names round-trip" `Quick test_of_name;
  ]
