(* Tests for the NOW core: parameters, containers, cluster table, cost
   model and the protocol engine itself. *)

module Params = Now_core.Params
module Vec = Now_core.Vec
module Node = Now_core.Node
module Ct = Now_core.Cluster_table
module Cost = Now_core.Cost_model
module Engine = Now_core.Engine
module Rng = Prng.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf_eps eps msg a b = Alcotest.check (Alcotest.float eps) msg a b

(* ---------- Params ---------- *)

let test_params_defaults () =
  let p = Params.default in
  checki "log2 N" 14 (Params.log2_n_max_int p);
  checki "target size" 112 (Params.target_cluster_size p);
  checki "max size" 168 (Params.max_cluster_size p);
  checki "min size" 75 (Params.min_cluster_size p);
  checkb "thresholds ordered" true
    (Params.min_cluster_size p < Params.target_cluster_size p
    && Params.target_cluster_size p < Params.max_cluster_size p);
  checkb "byz threshold < 1/3" true (Params.byz_threshold p < 1.0 /. 3.0)

let test_params_validation () =
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail msg
  in
  expect_invalid "l too small" (fun () -> Params.make ~l:1.2 ~n_max:1024 ());
  expect_invalid "tau too large" (fun () -> Params.make ~tau:0.48 ~n_max:1024 ());
  (* tau in (1/3, 1/2) is legal: the Remark 1/2 regime. *)
  ignore (Params.make ~tau:0.42 ~epsilon:0.05 ~n_max:1024 ());
  expect_invalid "tiny n_max" (fun () -> Params.make ~n_max:4 ());
  expect_invalid "k zero" (fun () -> Params.make ~k:0 ~n_max:1024 ());
  expect_invalid "negative epsilon" (fun () ->
      Params.make ~epsilon:(-0.1) ~n_max:1024 ())

let test_params_overlay_degree () =
  let p = Params.make ~n_max:(1 lsl 14) ~overlay_c:2.0 ~overlay_alpha:0.25 () in
  checki "capped by clusters" 4 (Params.overlay_target_degree p ~n_clusters:5);
  checkb "formula when many clusters" true
    (Params.overlay_target_degree p ~n_clusters:10_000 >= 14);
  checki "no clusters" 0 (Params.overlay_target_degree p ~n_clusters:1)

let test_min_network_size () =
  let p = Params.make ~n_max:(1 lsl 14) () in
  checki "sqrt N" 128 (Params.min_network_size p)

(* ---------- Vec ---------- *)

let test_vec_basic () =
  let v = Vec.create () in
  checki "empty" 0 (Vec.length v);
  Vec.push v 10;
  Vec.push v 20;
  Vec.push v 30;
  checki "length" 3 (Vec.length v);
  checki "get" 20 (Vec.get v 1);
  Vec.set v 1 99;
  checki "set" 99 (Vec.get v 1);
  checkb "mem" true (Vec.mem v 99);
  checkb "not mem" false (Vec.mem v 1234)

let test_vec_swap_remove () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  checki "removed value" 2 (Vec.swap_remove v 1);
  checki "length" 3 (Vec.length v);
  checki "last moved in" 4 (Vec.get v 1);
  Alcotest.check (Alcotest.list Alcotest.int) "contents" [ 1; 4; 3 ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1 ] in
  Alcotest.check_raises "oob get" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Vec.get v 1));
  Alcotest.check_raises "oob remove" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.swap_remove v 5))

let test_vec_growth () =
  let v = Vec.create ~capacity:1 () in
  for i = 0 to 999 do
    Vec.push v i
  done;
  checki "grew" 1000 (Vec.length v);
  checki "kept values" 500 (Vec.get v 500);
  Vec.clear v;
  checki "cleared" 0 (Vec.length v)

let prop_vec_matches_list =
  (* Vec with swap_remove is a multiset: compare against a list model. *)
  QCheck.Test.make ~name:"vec models a multiset" ~count:300
    QCheck.(list (pair bool small_int))
    (fun ops ->
      let v = Vec.create () in
      let model = ref [] in
      List.iter
        (fun (is_push, x) ->
          if is_push then begin
            Vec.push v x;
            model := x :: !model
          end
          else if Vec.length v > 0 then begin
            let idx = x mod Vec.length v in
            let removed = Vec.swap_remove v idx in
            let rec drop_one = function
              | [] -> []
              | y :: rest -> if y = removed then rest else y :: drop_one rest
            in
            model := drop_one !model
          end)
        ops;
      List.sort compare (Vec.to_list v) = List.sort compare !model)

(* ---------- Roster ---------- *)

let test_roster () =
  let r = Node.Roster.create () in
  let a = Node.Roster.fresh r Node.Honest in
  let b = Node.Roster.fresh r Node.Byzantine in
  checkb "ids distinct" true (a <> b);
  checki "count" 2 (Node.Roster.count r);
  checki "byz" 1 (Node.Roster.byzantine_count r);
  checkf_eps 1e-9 "fraction" 0.5 (Node.Roster.byzantine_fraction r);
  Node.Roster.remove r b;
  checki "after removal" 1 (Node.Roster.count r);
  checki "byz after removal" 0 (Node.Roster.byzantine_count r);
  checkb "honesty persists after departure" true
    (Node.Roster.honesty r b = Node.Byzantine);
  checkb "not present" false (Node.Roster.is_present r b);
  checki "total allocated" 2 (Node.Roster.total_allocated r)

let test_roster_no_reuse () =
  let r = Node.Roster.create () in
  let a = Node.Roster.fresh r Node.Honest in
  Node.Roster.remove r a;
  let b = Node.Roster.fresh r Node.Honest in
  checkb "ids never reused" true (b > a)

(* ---------- Cluster_table ---------- *)

let byz_pred node = node mod 5 = 0

let make_table () = Ct.create ~is_byzantine:byz_pred

let test_table_new_cluster () =
  let t = make_table () in
  let c = Ct.new_cluster t ~members:[ 0; 1; 2; 3 ] in
  checki "size" 4 (Ct.size t c);
  checki "byz count" 1 (Ct.byz_count t c);
  checkf_eps 1e-9 "fraction" 0.25 (Ct.byz_fraction t c);
  checki "nodes" 4 (Ct.n_nodes t);
  checki "clusters" 1 (Ct.n_clusters t);
  checki "home" c (Ct.cluster_of t 2);
  Ct.check_consistency t

let test_table_add_remove () =
  let t = make_table () in
  let c = Ct.new_cluster t ~members:[ 1; 2 ] in
  Ct.add_member t ~cluster:c ~node:3;
  checki "grown" 3 (Ct.size t c);
  Ct.remove_member t ~node:2;
  checki "shrunk" 2 (Ct.size t c);
  checkb "member gone" true (not (List.mem 2 (Ct.members t c)));
  Alcotest.check_raises "homeless" Not_found (fun () -> ignore (Ct.cluster_of t 2));
  Ct.check_consistency t

let test_table_swap () =
  let t = make_table () in
  let a = Ct.new_cluster t ~members:[ 1; 2 ] in
  let b = Ct.new_cluster t ~members:[ 3; 4 ] in
  Ct.swap t 1 3;
  checki "1 moved" b (Ct.cluster_of t 1);
  checki "3 moved" a (Ct.cluster_of t 3);
  checki "sizes kept a" 2 (Ct.size t a);
  checki "sizes kept b" 2 (Ct.size t b);
  Ct.check_consistency t

let test_table_dissolve () =
  let t = make_table () in
  let a = Ct.new_cluster t ~members:[ 1; 2; 3 ] in
  let members = Ct.dissolve t a in
  Alcotest.check (Alcotest.list Alcotest.int) "returned members" [ 1; 2; 3 ]
    (List.sort compare members);
  checki "no clusters" 0 (Ct.n_clusters t);
  checki "no nodes" 0 (Ct.n_nodes t);
  checkb "gone" false (Ct.exists t a);
  Ct.check_consistency t

let test_table_violation_tracking () =
  let t = make_table () in
  (* byz nodes are multiples of 5: 3 members with 1 byz -> violating
     (3 <= 3*1). *)
  let c = Ct.new_cluster t ~members:[ 0; 1; 2 ] in
  checki "violating" 1 (Ct.violations_now t);
  checki "events" 1 (Ct.violation_events t);
  (* Grow it with honest members until healthy: 1 byz of 4 -> 4 > 3. *)
  Ct.add_member t ~cluster:c ~node:6;
  checki "healthy now" 0 (Ct.violations_now t);
  (* Shrink back into violation: a second event. *)
  Ct.remove_member t ~node:6;
  checki "violating again" 1 (Ct.violations_now t);
  checki "two events" 2 (Ct.violation_events t);
  Ct.check_consistency t

let test_table_swap_no_spurious_events () =
  let t = make_table () in
  (* Two healthy clusters; swapping honest members cannot create events. *)
  let a = Ct.new_cluster t ~members:[ 1; 2; 3; 4 ] in
  let b = Ct.new_cluster t ~members:[ 6; 7; 8; 9 ] in
  ignore (a, b);
  let before = Ct.violation_events t in
  Ct.swap t 1 6;
  Ct.swap t 2 7;
  checki "no events from swaps" before (Ct.violation_events t)

let test_table_min_honest () =
  let t = make_table () in
  ignore (Ct.new_cluster t ~members:[ 1; 2; 3; 4 ]) (* all honest *);
  ignore (Ct.new_cluster t ~members:[ 0; 5; 6 ]) (* 2 byz of 3 *);
  checkf_eps 1e-9 "min honest" (1.0 /. 3.0) (Ct.min_honest_fraction t)

let test_table_sampling () =
  let t = make_table () in
  let small = Ct.new_cluster t ~members:[ 1; 2 ] in
  let big = Ct.new_cluster t ~members:[ 3; 4; 6; 7; 8; 9 ] in
  let rng = Rng.of_int 42 in
  let big_hits = ref 0 in
  let trials = 4000 in
  for _ = 1 to trials do
    if Ct.sample_cluster_by_size t rng ~size_bound:8 = big then incr big_hits
  done;
  let frac = float_of_int !big_hits /. float_of_int trials in
  checkb "proportional to size (6/8)" true (abs_float (frac -. 0.75) < 0.05);
  (* uniform_member covers the cluster *)
  let seen = Hashtbl.create 8 in
  for _ = 1 to 500 do
    Hashtbl.replace seen (Ct.uniform_member t rng small) ()
  done;
  checki "both members seen" 2 (Hashtbl.length seen)

let test_table_size_bound_check () =
  let t = make_table () in
  ignore (Ct.new_cluster t ~members:[ 1; 2; 3 ]);
  let rng = Rng.of_int 1 in
  Alcotest.check_raises "bound too small"
    (Invalid_argument "Cluster_table: size_bound below an actual cluster size")
    (fun () -> ignore (Ct.sample_cluster_by_size t rng ~size_bound:2))

let prop_table_consistency_random_ops =
  QCheck.Test.make ~name:"cluster table stays consistent under random ops" ~count:60
    QCheck.(list (pair (int_range 0 4) small_int))
    (fun ops ->
      let t = make_table () in
      let next = ref 0 in
      let fresh_nodes k =
        List.init k (fun _ ->
            incr next;
            !next)
      in
      ignore (Ct.new_cluster t ~members:(fresh_nodes 5));
      List.iter
        (fun (op, x) ->
          let cids = Ct.cluster_ids t in
          let pick_cluster () = List.nth cids (x mod List.length cids) in
          match op with
          | 0 -> ignore (Ct.new_cluster t ~members:(fresh_nodes ((x mod 4) + 1)))
          | 1 ->
            let c = pick_cluster () in
            incr next;
            Ct.add_member t ~cluster:c ~node:!next
          | 2 ->
            let c = pick_cluster () in
            (match Ct.members t c with
            | [] -> ()
            | m :: _ -> Ct.remove_member t ~node:m)
          | 3 ->
            let c1 = pick_cluster () and c2 = pick_cluster () in
            (match (Ct.members t c1, Ct.members t c2) with
            | a :: _, b :: _ when a <> b -> Ct.swap t a b
            | _ -> ())
          | _ ->
            if Ct.n_clusters t > 1 then ignore (Ct.dissolve t (pick_cluster ())))
        ops;
      Ct.check_consistency t;
      true)

(* ---------- Cost model ---------- *)

let test_cost_model () =
  checki "randnum" (2 * 10 * 9) (Cost.randnum_messages ~size:10);
  checki "valchan" 30 (Cost.valchan_messages ~src:5 ~dst:6);
  checki "hop = randnum + valchan" (Cost.randnum_messages ~size:5 + 30)
    (Cost.hop_messages ~src:5 ~dst:6);
  checki "transfer" 11 (Cost.transfer_messages ~src:5 ~dst:6);
  checkb "king saia grows superlinearly" true
    (Cost.king_saia_messages ~n:1000 > 10 * Cost.king_saia_messages ~n:100);
  checkb "hops grow with clusters" true
    (Cost.direct_hop_estimate ~walk_c:2.0 ~n_clusters:1000
    > Cost.direct_hop_estimate ~walk_c:2.0 ~n_clusters:10)

let test_walk_duration_scaling () =
  let d1 = Cost.walk_duration ~walk_c:2.0 ~n_clusters:64 ~mean_degree:8.0 in
  let d2 = Cost.walk_duration ~walk_c:2.0 ~n_clusters:64 ~mean_degree:16.0 in
  checkb "duration shrinks with degree" true (d2 < d1);
  checkf_eps 1e-9 "value" (2.0 *. 6.0 /. 8.0) d1

(* ---------- Engine ---------- *)

let small_params ?(walk_mode = Params.Direct_sample) ?(merge_policy = Params.Absorb_random_victim) () =
  Params.make ~n_max:(1 lsl 10) ~k:3 ~tau:0.15 ~walk_mode ~merge_policy ()

let population rng n tau =
  List.init n (fun _ -> if Rng.bernoulli rng tau then Node.Byzantine else Node.Honest)

let make_engine ?(seed = 5L) ?(n0 = 300) ?walk_mode ?merge_policy () =
  let params = small_params ?walk_mode ?merge_policy () in
  let rng = Rng.create seed in
  Engine.create ~seed params ~initial:(population rng n0 0.15)

let test_engine_init () =
  let e = make_engine () in
  Engine.check_invariants e;
  checki "nodes" 300 (Engine.n_nodes e);
  checkb "clusters formed" true (Engine.n_clusters e >= 2);
  let r = Engine.init_report e in
  checkb "discovery charged" true (r.Engine.discovery_messages > 0);
  checkb "agreement charged" true (r.Engine.agreement_messages > 0);
  checki "initial clusters recorded" (Engine.n_clusters e) r.Engine.initial_clusters;
  checkb "overlay connected" true
    (Dsgraph.Traversal.is_connected (Over.graph (Engine.overlay e)))

let test_engine_empty_init () =
  let params = small_params () in
  Alcotest.check_raises "empty initial"
    (Invalid_argument "Engine.create: empty initial population") (fun () ->
      ignore (Engine.create params ~initial:[]))

let test_engine_join () =
  let e = make_engine () in
  let before = Engine.n_nodes e in
  let node, report = Engine.join e Node.Honest in
  checki "population grew" (before + 1) (Engine.n_nodes e);
  checkb "node present" true (Node.Roster.is_present (Engine.roster e) node);
  checkb "messages charged" true (report.Engine.messages > 0);
  checkb "rounds positive" true (report.Engine.rounds > 0);
  checkb "walks happened" true (report.Engine.walks > 0);
  Engine.check_invariants e

let test_engine_leave () =
  let e = make_engine () in
  let before = Engine.n_nodes e in
  let victim = Engine.random_node e in
  let report = Engine.leave e victim in
  checki "population shrank" (before - 1) (Engine.n_nodes e);
  checkb "departed" false (Node.Roster.is_present (Engine.roster e) victim);
  checkb "messages charged" true (report.Engine.messages > 0);
  Engine.check_invariants e

let test_engine_leave_absent () =
  let e = make_engine () in
  let victim = Engine.random_node e in
  ignore (Engine.leave e victim);
  Alcotest.check_raises "double leave"
    (Invalid_argument "Engine.leave: node is not present") (fun () ->
      ignore (Engine.leave e victim))

let test_engine_split_on_growth () =
  let e = make_engine ~n0:120 () in
  let c0 = Engine.n_clusters e in
  let splits = ref 0 in
  for _ = 1 to 200 do
    let _, r = Engine.join e Node.Honest in
    splits := !splits + r.Engine.splits
  done;
  checkb "splits happened" true (!splits > 0);
  checkb "more clusters" true (Engine.n_clusters e > c0);
  Engine.check_invariants e

let test_engine_merge_on_shrink () =
  let e = make_engine ~n0:400 () in
  let merges = ref 0 in
  for _ = 1 to 250 do
    let r = Engine.leave e (Engine.random_node e) in
    merges := !merges + r.Engine.merges
  done;
  checkb "merges happened" true (!merges > 0);
  Engine.check_invariants e

let test_engine_rejoin_policy () =
  let e = make_engine ~merge_policy:Params.Rejoin_self ~n0:400 () in
  let rejoins = ref 0 in
  for _ = 1 to 250 do
    let r = Engine.leave e (Engine.random_node e) in
    rejoins := !rejoins + r.Engine.rejoins
  done;
  (* Merges under Rejoin_self queue members who re-join later. *)
  checkb "rejoins processed" true (!rejoins > 0);
  Engine.check_invariants e

let test_engine_exchange_cluster () =
  let e = make_engine () in
  let tbl = Engine.table e in
  let cid = Ct.uniform_cluster tbl (Rng.of_int 9) in
  let before = Ct.members tbl cid in
  let report = Engine.exchange_cluster e cid in
  let after = Ct.members tbl cid in
  checki "size preserved" (List.length before) (List.length after);
  checkb "walks = members" true (report.Engine.walks >= List.length before - 2);
  let stayed = List.filter (fun x -> List.mem x after) before in
  checkb "members replaced" true
    (List.length stayed < List.length before);
  Engine.check_invariants e

let test_engine_exchange_unknown_cluster () =
  let e = make_engine () in
  Alcotest.check_raises "unknown cluster" Not_found (fun () ->
      ignore (Engine.exchange_cluster e 999_999))

(* Epoch golden.  A scaled engine (the E15 constructor) after 200 paired
   join/leave steps runs three sharded exchange epochs; every epoch's
   report, the ledger totals the epoch charges and the final digests are
   literals recorded before the epoch's view cost was computed once per
   cluster.  Both engine representations run the same epoch code, so the
   arena-vs-reference suite cannot catch a change in what it charges;
   these literals can. *)
let epoch_golden =
  [
    "epoch 1 messages=5390944275 rounds=1248 walks=4096 walk_hops=133375";
    "epoch 2 messages=5441180390 rounds=1202 walks=4096 walk_hops=134904";
    "epoch 3 messages=5415700946 rounds=972 walks=4096 walk_hops=134409";
    "ledger exchange.swap messages=25757393849 rounds=0";
    "ledger exchange.view_update messages=116203337216 rounds=7597";
    "ledger randcl messages=907819915398 rounds=108926804";
    "digest honesty 7ac1e275c7eb28a4";
    "digest ledger 0446fee12deb69e4";
    "digest overlay cd6da65715ce235f";
    "digest rng 270f6b84cac60072";
    "digest table 4fed71653012914a";
  ]

let test_engine_epoch_golden () =
  let params =
    Params.make ~n_max:(1 lsl 13) ~tau:0.15 ~walk_mode:Params.Direct_sample
      ~allow_split_merge:true ()
  in
  let rng = Rng.create 21L in
  let e = Engine.create_scaled ~seed:21L params ~initial:(population rng 4096 0.15) in
  for _ = 1 to 200 do
    let honesty = if Rng.bernoulli rng 0.15 then Node.Byzantine else Node.Honest in
    ignore (Engine.join e honesty);
    ignore (Engine.leave e (Engine.random_node e))
  done;
  let epochs =
    List.init 3 (fun i ->
        let r = Engine.exchange_epoch e in
        Printf.sprintf "epoch %d messages=%d rounds=%d walks=%d walk_hops=%d" (i + 1)
          r.Engine.messages r.Engine.rounds r.Engine.walks r.Engine.walk_hops)
  in
  let ledger =
    List.filter_map
      (fun (label, messages, rounds) ->
        if List.mem label [ "randcl"; "exchange.swap"; "exchange.view_update" ] then
          Some (Printf.sprintf "ledger %s messages=%d rounds=%d" label messages rounds)
        else None)
      (Metrics.Ledger.labels (Engine.ledger e))
  in
  let digests =
    List.map
      (fun (name, d) -> Printf.sprintf "digest %s %s" name (Audit.Fnv.to_hex d))
      (Audit.Digest_of.engine e)
  in
  Engine.check_invariants e;
  Alcotest.(check (list string)) "epoch golden" epoch_golden (epochs @ ledger @ digests)

let test_engine_rand_cl_distribution () =
  let e = make_engine () in
  let tbl = Engine.table e in
  let counts = Hashtbl.create 16 in
  let trials = 3000 in
  for _ = 1 to trials do
    let cid, _ = Engine.rand_cl e () in
    Hashtbl.replace counts cid
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts cid))
  done;
  (* Direct_sample mode: exact proportionality up to noise. *)
  let n = float_of_int (Ct.n_nodes tbl) in
  Ct.iter_clusters tbl (fun cid ->
      let expected = float_of_int (Ct.size tbl cid) /. n in
      let got =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts cid))
        /. float_of_int trials
      in
      checkb "proportional" true (abs_float (got -. expected) < 0.05))

let test_engine_exact_walk_mode () =
  let e = make_engine ~walk_mode:Params.Exact_walk ~n0:200 () in
  let _, r1 = Engine.join e Node.Honest in
  checkb "exact mode walks hop" true (r1.Engine.walk_hops > 0);
  ignore (Engine.leave e (Engine.random_node e));
  Engine.check_invariants e

let test_engine_random_node_where () =
  let e = make_engine () in
  (match Engine.random_node_where e (fun node -> node mod 2 = 0) with
  | Some node -> checki "predicate holds" 0 (node mod 2)
  | None -> Alcotest.fail "should find an even node");
  checkb "unsatisfiable predicate" true
    (Engine.random_node_where e (fun _ -> false) = None)

let test_engine_uniform_member () =
  let e = make_engine () in
  let tbl = Engine.table e in
  let cid = Ct.uniform_cluster tbl (Rng.of_int 2) in
  let m = Engine.uniform_member e cid in
  checki "member of cluster" cid (Ct.cluster_of tbl m)

let test_engine_byz_tracking () =
  let e = make_engine () in
  let fractions = Engine.byz_fractions e in
  checki "one fraction per cluster" (Engine.n_clusters e) (List.length fractions);
  List.iter (fun f -> checkb "in [0,1]" true (f >= 0.0 && f <= 1.0)) fractions;
  checkb "min honest consistent" true
    (Engine.min_honest_fraction e
    >= 1.0 -. List.fold_left Float.max 0.0 fractions -. 1e-9)

let test_engine_churn_stability () =
  (* The canonical long-ish random churn: invariants must hold at every
     step and no standing violation may persist. *)
  let e = make_engine ~n0:350 () in
  let rng = Rng.of_int 77 in
  for i = 1 to 300 do
    if Rng.bool rng then
      ignore (Engine.join e (if Rng.bernoulli rng 0.15 then Node.Byzantine else Node.Honest))
    else ignore (Engine.leave e (Engine.random_node e));
    if i mod 50 = 0 then Engine.check_invariants e
  done;
  checki "no standing violations" 0 (Engine.violations_now e);
  checkb "population tracked" true (Engine.n_nodes e > 200)

let test_engine_determinism () =
  (* Two engines with the same seed must follow identical trajectories. *)
  let run () =
    let e = make_engine ~seed:99L () in
    let rng = Rng.of_int 123 in
    let trace = Buffer.create 256 in
    for _ = 1 to 60 do
      if Rng.bool rng then begin
        let node, r = Engine.join e Node.Honest in
        Buffer.add_string trace (Printf.sprintf "j%d:%d;" node r.Engine.messages)
      end
      else begin
        let victim = Engine.random_node e in
        let r = Engine.leave e victim in
        Buffer.add_string trace (Printf.sprintf "l%d:%d;" victim r.Engine.messages)
      end
    done;
    Buffer.add_string trace
      (Printf.sprintf "n%d c%d m%d" (Engine.n_nodes e) (Engine.n_clusters e)
         (Metrics.Ledger.total_messages (Engine.ledger e)));
    Buffer.contents trace
  in
  Alcotest.check Alcotest.string "identical trajectories" (run ()) (run ())

let test_engine_no_shuffle_variant () =
  let params =
    Params.make ~n_max:(1 lsl 10) ~k:3 ~tau:0.15 ~walk_mode:Params.Direct_sample
      ~shuffle_on_churn:false ()
  in
  let rng = Rng.create 8L in
  let e = Engine.create ~seed:8L params ~initial:(population rng 300 0.15) in
  let _, r = Engine.join e Node.Honest in
  (* Without shuffling the join is much cheaper: no exchange walks beyond
     the placement walk. *)
  checki "single walk" 1 r.Engine.walks;
  Engine.check_invariants e

let suite =
  [
    Alcotest.test_case "params defaults" `Quick test_params_defaults;
    Alcotest.test_case "params validation" `Quick test_params_validation;
    Alcotest.test_case "params overlay degree" `Quick test_params_overlay_degree;
    Alcotest.test_case "min network size" `Quick test_min_network_size;
    Alcotest.test_case "vec basic" `Quick test_vec_basic;
    Alcotest.test_case "vec swap_remove" `Quick test_vec_swap_remove;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec growth" `Quick test_vec_growth;
    QCheck_alcotest.to_alcotest prop_vec_matches_list;
    Alcotest.test_case "roster" `Quick test_roster;
    Alcotest.test_case "roster id uniqueness" `Quick test_roster_no_reuse;
    Alcotest.test_case "table new cluster" `Quick test_table_new_cluster;
    Alcotest.test_case "table add/remove" `Quick test_table_add_remove;
    Alcotest.test_case "table swap" `Quick test_table_swap;
    Alcotest.test_case "table dissolve" `Quick test_table_dissolve;
    Alcotest.test_case "table violation tracking" `Quick test_table_violation_tracking;
    Alcotest.test_case "table swap no spurious events" `Quick
      test_table_swap_no_spurious_events;
    Alcotest.test_case "table min honest" `Quick test_table_min_honest;
    Alcotest.test_case "table sampling" `Quick test_table_sampling;
    Alcotest.test_case "table size bound check" `Quick test_table_size_bound_check;
    QCheck_alcotest.to_alcotest prop_table_consistency_random_ops;
    Alcotest.test_case "cost model" `Quick test_cost_model;
    Alcotest.test_case "walk duration scaling" `Quick test_walk_duration_scaling;
    Alcotest.test_case "engine init" `Quick test_engine_init;
    Alcotest.test_case "engine empty init" `Quick test_engine_empty_init;
    Alcotest.test_case "engine join" `Quick test_engine_join;
    Alcotest.test_case "engine leave" `Quick test_engine_leave;
    Alcotest.test_case "engine leave absent" `Quick test_engine_leave_absent;
    Alcotest.test_case "engine split on growth" `Quick test_engine_split_on_growth;
    Alcotest.test_case "engine merge on shrink" `Quick test_engine_merge_on_shrink;
    Alcotest.test_case "engine rejoin policy" `Quick test_engine_rejoin_policy;
    Alcotest.test_case "engine exchange cluster" `Quick test_engine_exchange_cluster;
    Alcotest.test_case "engine exchange unknown" `Quick test_engine_exchange_unknown_cluster;
    Alcotest.test_case "engine exchange epoch golden" `Quick test_engine_epoch_golden;
    Alcotest.test_case "engine rand_cl distribution" `Quick test_engine_rand_cl_distribution;
    Alcotest.test_case "engine exact walk mode" `Quick test_engine_exact_walk_mode;
    Alcotest.test_case "engine random_node_where" `Quick test_engine_random_node_where;
    Alcotest.test_case "engine uniform member" `Quick test_engine_uniform_member;
    Alcotest.test_case "engine byz tracking" `Quick test_engine_byz_tracking;
    Alcotest.test_case "engine churn stability" `Quick test_engine_churn_stability;
    Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
    Alcotest.test_case "engine no-shuffle variant" `Quick test_engine_no_shuffle_variant;
  ]
