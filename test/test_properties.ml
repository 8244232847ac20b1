(* Cross-cutting property-based tests (qcheck): randomized sequences and
   adversarially-shaped inputs against the core invariants. *)

module Engine = Now_core.Engine
module Params = Now_core.Params
module Node = Now_core.Node
module Graph = Dsgraph.Graph
module Rng = Prng.Rng

(* ---------- OVER under random operation sequences ---------- *)

(* Grow ([true]) or remove ([false]) vertices of a seeded overlay
   (target degree 4, so the Property 2 cap is 8) and return the final
   graph. *)
let over_after_ops seed ops =
  let rng = Rng.of_int seed in
  let target d ~n_vertices = min (n_vertices - 1) d in
  let over = Over.create ~rng:(Rng.split rng) ~target_degree:(target 4) in
  Over.init_erdos_renyi over ~vertices:[ 0; 1; 2; 3; 4; 5; 6; 7 ];
  let next = ref 100 in
  let pick () =
    let vs = Array.of_list (Graph.vertices (Over.graph over)) in
    vs.(Rng.int rng (Array.length vs))
  in
  List.iter
    (fun grow ->
      if grow && Over.n_vertices over < 40 then begin
        incr next;
        Over.add_vertex over !next ~pick
      end
      else if Over.n_vertices over > 3 then
        Over.remove_vertex over (pick ()) ~pick)
    ops;
  Over.graph over

let prop_over_degree_cap =
  QCheck.Test.make ~name:"OVER: degree cap holds under any op sequence" ~count:40
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 60) bool))
    (fun (seed, ops) ->
      let g = over_after_ops seed ops in
      Graph.max_degree g <= 2 * 4
      && List.for_all (fun (u, v) -> u <> v) (Graph.edges g))

(* A sequence the property once drew: a removal refilled an under-full
   neighbour with an edge to a vertex already at the cap, which ended at
   degree 9.  Removals must shed the refill's new endpoints, as additions
   do. *)
let test_over_cap_after_removal_refill () =
  let ops = String.to_seq "+--++-+++-+++--+--+++-+-++--" |> Seq.map (( = ) '+') in
  let ops = List.of_seq ops in
  let g = over_after_ops 47 ops in
  Alcotest.(check bool)
    (Printf.sprintf "max degree %d within the cap 8" (Graph.max_degree g))
    true
    (Graph.max_degree g <= 2 * 4)

(* ---------- biased walks ---------- *)

let prop_biased_walk_avoids_zero_weight =
  QCheck.Test.make ~name:"biased CTRW never selects weight-0 vertices" ~count:60
    QCheck.(pair small_int (int_range 4 12))
    (fun (seed, n) ->
      let rng = Rng.of_int seed in
      let g = Dsgraph.Gen.complete ~n in
      (* Half the vertices carry zero weight. *)
      let weight v = if v < n / 2 then 0.0 else 1.0 in
      let ok = ref true in
      for _ = 1 to 20 do
        let v =
          Randwalk.Ctrw.biased_select g rng ~start:0 ~duration:3.0 ~weight
            ~max_weight:1.0 ()
        in
        if weight v = 0.0 then ok := false
      done;
      !ok)

(* ---------- validated channel counting rule ---------- *)

let prop_validate_majority_only =
  QCheck.Test.make ~name:"validate accepts only strict-majority payloads" ~count:500
    QCheck.(
      pair (int_range 1 9)
        (list_of_size (QCheck.Gen.int_range 0 30) (pair (int_range 0 12) (int_range 0 3))))
    (fun (n_members, inbox) ->
      let members = List.init n_members (fun i -> i) in
      match Cluster.Valchan.validate ~members ~inbox with
      | None -> true
      | Some v ->
        (* Count distinct member senders whose first message carried v. *)
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (s, p) ->
            if List.mem s members && not (Hashtbl.mem seen s) then
              Hashtbl.replace seen s p)
          inbox;
        let votes = Hashtbl.fold (fun _ p acc -> if p = v then acc + 1 else acc) seen 0 in
        2 * votes > n_members)

(* ---------- randNum mix ---------- *)

let prop_mix_in_range =
  QCheck.Test.make ~name:"randNum mix lands in [0, range)" ~count:500
    QCheck.(pair (list small_int) (int_range 1 1000))
    (fun (contributions, range) ->
      let v = Cluster.Randnum.mix contributions ~range in
      v >= 0 && v < range)

(* ---------- engine under random churn scripts ---------- *)

let small_engine seed =
  let params =
    Params.make ~n_max:(1 lsl 10) ~k:3 ~tau:0.15 ~walk_mode:Params.Direct_sample ()
  in
  let rng = Rng.create (Int64.of_int seed) in
  let initial =
    List.init 250 (fun _ -> if Rng.bernoulli rng 0.15 then Node.Byzantine else Node.Honest)
  in
  Engine.create ~seed:(Int64.of_int seed) params ~initial

let prop_engine_invariants_under_scripts =
  QCheck.Test.make ~name:"engine invariants under random churn scripts" ~count:15
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 40) bool))
    (fun (seed, script) ->
      let e = small_engine seed in
      List.iter
        (fun join ->
          if join || Engine.n_nodes e < 100 then ignore (Engine.join e Node.Honest)
          else ignore (Engine.leave e (Engine.random_node e)))
        script;
      Engine.check_invariants e;
      true)

let prop_engine_exchange_conserves =
  QCheck.Test.make ~name:"exchange conserves population and byz count" ~count:15
    QCheck.small_int
    (fun seed ->
      let e = small_engine seed in
      let tbl = Engine.table e in
      let byz_total () =
        List.fold_left
          (fun acc cid -> acc + Now_core.Cluster_table.byz_count tbl cid)
          0
          (Now_core.Cluster_table.cluster_ids tbl)
      in
      let n0 = Engine.n_nodes e and b0 = byz_total () in
      List.iter
        (fun cid -> ignore (Engine.exchange_cluster e cid))
        (Now_core.Cluster_table.cluster_ids tbl);
      Engine.n_nodes e = n0 && byz_total () = b0)

let prop_engine_rand_cl_valid =
  QCheck.Test.make ~name:"rand_cl returns live clusters" ~count:10 QCheck.small_int
    (fun seed ->
      let e = small_engine seed in
      let tbl = Engine.table e in
      let ok = ref true in
      for _ = 1 to 50 do
        let cid, _ = Engine.rand_cl e () in
        if not (Now_core.Cluster_table.exists tbl cid) then ok := false
      done;
      !ok)

let prop_snapshot_roundtrip_any_script =
  QCheck.Test.make ~name:"snapshot roundtrip after any churn script" ~count:10
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 0 25) bool))
    (fun (seed, script) ->
      let e = small_engine seed in
      List.iter
        (fun join ->
          if join || Engine.n_nodes e < 100 then ignore (Engine.join e Node.Honest)
          else ignore (Engine.leave e (Engine.random_node e)))
        script;
      let s1 = Engine.save e in
      let s2 = Engine.save (Engine.load s1) in
      s1 = s2)

(* ---------- batched valchan vs the naive per-sender oracle ---------- *)

(* Two configs built from the same seed follow the same RNG trajectory, so
   the batched session and the reference session can be compared on equal
   footing (running both on one config would interleave their draws). *)

(* The result of [f] and every point it emitted under a net-detail
   collector: the [byz.*] deviations and the kernel-format [net.round],
   [net.byz.*] and [net.send.*] points, in emission order.  Spans are
   left out because only [transmit] opens one. *)
let session_points f =
  let r, dump = Trace.profiled ~net_detail:true f in
  (r, List.filter (function Trace.Point _ -> true | _ -> false) dump.Trace.events)
let mk_valchan_cfg seed ~src_size ~dst_size ~src_byz ~dst_byz =
  let module B = Agreement.Byz_behavior in
  let strategies = [| B.Silent; B.Fixed 9; B.Equivocate (1, 2); B.Random_noise 3 |] in
  let byz node =
    if node < 100 then
      if node < src_byz then Some strategies.(node mod 4) else None
    else if node - 100 < dst_byz then Some strategies.((node - 100) mod 4)
    else None
  in
  let clusters =
    [
      (0, List.init src_size (fun i -> i));
      (1, List.init dst_size (fun i -> 100 + i));
    ]
  in
  let overlay = Dsgraph.Graph.create () in
  ignore (Dsgraph.Graph.add_edge overlay 0 1);
  Cluster.Config.make ~rng:(Rng.of_int seed) ~byzantine:byz ~clusters ~overlay ()

let prop_valchan_batched_equals_reference =
  QCheck.Test.make
    ~name:"valchan: batched transmit == per-sender reference (verdicts + charges)"
    ~count:80
    QCheck.(
      quad small_int (int_range 3 13) (int_range 3 13)
        (pair (int_range 0 4) (int_range 0 4)))
    (fun (seed, src_size, dst_size, (src_byz, dst_byz)) ->
      let src_byz = min src_byz (src_size - 1) and dst_byz = min dst_byz (dst_size - 1) in
      let cfg1 = mk_valchan_cfg seed ~src_size ~dst_size ~src_byz ~dst_byz in
      let cfg2 = mk_valchan_cfg seed ~src_size ~dst_size ~src_byz ~dst_byz in
      let r1 =
        Cluster.Valchan.transmit cfg1 ~src_cluster:0 ~dst_cluster:1 ~payload:7 ()
      in
      let r2 =
        Cluster.Valchan.transmit_reference cfg2 ~src_cluster:0 ~dst_cluster:1
          ~payload:7 ()
      in
      let p1 =
        session_points (fun () ->
            Cluster.Valchan.transmit
              (mk_valchan_cfg seed ~src_size ~dst_size ~src_byz ~dst_byz)
              ~src_cluster:0 ~dst_cluster:1 ~payload:7 ())
      in
      let p2 =
        session_points (fun () ->
            Cluster.Valchan.transmit_reference
              (mk_valchan_cfg seed ~src_size ~dst_size ~src_byz ~dst_byz)
              ~src_cluster:0 ~dst_cluster:1 ~payload:7 ())
      in
      r1.Cluster.Valchan.unanimous = r2.Cluster.Valchan.unanimous
      && r1.Cluster.Valchan.verdicts = r2.Cluster.Valchan.verdicts
      && Metrics.Ledger.labels (Cluster.Config.ledger cfg1)
         = Metrics.Ledger.labels (Cluster.Config.ledger cfg2)
      && p1 = p2)

(* The same equivalence where a forged value can win — sources with a
   Byzantine majority, up to all of them, agreeing on 9 — and on a
   walk.token transfer, where Drop_walk withholds copies and
   Misroute_walk redirects them to a sink outside the destination
   cluster. *)
let prop_valchan_batched_forged_majority =
  QCheck.Test.make
    ~name:
      "valchan: batched transmit == reference under forged majorities and walk \
       attacks"
    ~count:120
    QCheck.(quad small_int (int_range 1 9) (int_range 1 9) (int_range 0 9))
    (fun (seed, src_size, dst_size, src_byz) ->
      let module B = Agreement.Byz_behavior in
      let strategies =
        [|
          B.Fixed 9; B.Equivocate (9, 2); B.Misroute_walk 5; B.Fixed 9; B.Drop_walk 6;
        |]
      in
      let mk () =
        let byz node =
          if node < src_byz then Some strategies.(node mod 5)
          else if node = 100 then Some (B.Fixed 9)
          else None
        in
        let clusters =
          [
            (0, List.init src_size (fun i -> i));
            (1, List.init dst_size (fun i -> 100 + i));
          ]
        in
        let overlay = Dsgraph.Graph.create () in
        ignore (Dsgraph.Graph.add_edge overlay 0 1);
        Cluster.Config.make ~rng:(Rng.of_int seed) ~byzantine:byz ~clusters ~overlay ()
      in
      let cfg1 = mk () and cfg2 = mk () in
      let r1 =
        Cluster.Valchan.transmit cfg1 ~src_cluster:0 ~dst_cluster:1 ~label:"walk.token"
          ~payload:7 ()
      in
      let r2 =
        Cluster.Valchan.transmit_reference cfg2 ~src_cluster:0 ~dst_cluster:1
          ~label:"walk.token" ~payload:7 ()
      in
      let p1 =
        session_points (fun () ->
            Cluster.Valchan.transmit (mk ()) ~src_cluster:0 ~dst_cluster:1
              ~label:"walk.token" ~payload:7 ())
      in
      let p2 =
        session_points (fun () ->
            Cluster.Valchan.transmit_reference (mk ()) ~src_cluster:0 ~dst_cluster:1
              ~label:"walk.token" ~payload:7 ())
      in
      r1 = r2
      && Metrics.Ledger.labels (Cluster.Config.ledger cfg1)
         = Metrics.Ledger.labels (Cluster.Config.ledger cfg2)
      && p1 = p2)

(* ---------- randNum vs its kernel-based session ---------- *)

(* The draw as it ran on [Simkernel.Net]: every member is a node, and
   each member that escrows multicasts to the others in rounds 1 and 2.
   Kept as the oracle [Randnum.run] is checked against. *)
let randnum_on_kernel cfg ~cluster ~range =
  let module Net = Simkernel.Net in
  let module Randnum = Cluster.Randnum in
  let members = Cluster.Config.members cfg cluster in
  let n = List.length members in
  let ledger = Cluster.Config.ledger cfg in
  Trace.with_span
    ~attrs:[ ("cluster", cluster); ("size", n) ]
    ~ledger
    ~time:(Metrics.Ledger.total_rounds ledger)
    Trace.Msg "randnum"
    (fun () ->
      let secure = Randnum.secure cfg members in
      let net = Net.create ~ledger () in
      let contributions = ref [] in
      List.iter
        (fun id ->
          let contribution = Randnum.contribution cfg id in
          (match contribution with
          | Some c -> contributions := (id, c) :: !contributions
          | None -> ());
          Net.add_node net ~id (fun ~round ~inbox ->
              ignore inbox;
              if (round = 1 || round = 2) && contribution <> None then
                Net.multicast net ~src:id
                  ~dsts:(List.filter (( <> ) id) members)
                  ~label:"randnum" 0))
        members;
      Net.run_rounds net 2;
      Randnum.conclude ~secure ~n ~range !contributions)

(* One cluster [0 .. |kinds| - 1]; member [i] is honest (kind 0),
   [Silent] (1), [Fixed] (2) or [Equivocate] (3). *)
let mk_randnum_cfg seed kinds =
  let module B = Agreement.Byz_behavior in
  let kinds = Array.of_list kinds in
  let byz node =
    match kinds.(node) with
    | 0 -> None
    | 1 -> Some B.Silent
    | 2 -> Some (B.Fixed (node + 3))
    | _ -> Some (B.Equivocate (node, node + 1))
  in
  let overlay = Dsgraph.Graph.create () in
  Dsgraph.Graph.add_vertex overlay 0;
  Cluster.Config.make ~rng:(Rng.of_int seed) ~byzantine:byz
    ~clusters:[ (0, List.init (Array.length kinds) Fun.id) ]
    ~overlay ()

let prop_randnum_equals_kernel_session =
  QCheck.Test.make
    ~name:"randNum == its kernel-based session (outcome, charges, trace events)"
    ~count:200
    QCheck.(
      triple small_int (int_range 1 100)
        (list_of_size (QCheck.Gen.int_range 1 20) (int_range 0 3)))
    (fun (seed, range, kinds) ->
      let observe draw =
        let cfg = mk_randnum_cfg seed kinds in
        let outcome, dump =
          Trace.profiled ~net_detail:true (fun () -> draw cfg ~cluster:0 ~range)
        in
        let plain_cfg = mk_randnum_cfg seed kinds in
        let plain = draw plain_cfg ~cluster:0 ~range in
        ( (outcome, Metrics.Ledger.labels (Cluster.Config.ledger cfg), dump),
          (plain, Metrics.Ledger.labels (Cluster.Config.ledger plain_cfg)) )
      in
      observe Cluster.Randnum.run = observe randnum_on_kernel)

(* ---------- overlay-health cache vs recompute from scratch ---------- *)

let prop_health_cache_matches_recompute =
  QCheck.Test.make
    ~name:"overlay health cache == recompute after any mutation sequence" ~count:40
    QCheck.(
      pair small_int (list_of_size (QCheck.Gen.int_range 1 40) (pair bool small_int)))
    (fun (seed, ops) ->
      let rng = Rng.of_int seed in
      let g = Dsgraph.Gen.erdos_renyi rng ~n:12 ~p:0.4 in
      let cache = Over.Health_cache.create () in
      let ok = ref true in
      let check () =
        let cached = Over.Health_cache.health cache ~spectral_iterations:50 g in
        let fresh = Over.graph_health ~spectral_iterations:50 g in
        if cached <> fresh then ok := false;
        (* A second read without mutation must hit and stay identical. *)
        if Over.Health_cache.health cache ~spectral_iterations:50 g <> fresh then
          ok := false
      in
      check ();
      List.iter
        (fun (add, k) ->
          let u = k mod 12 and v = (k / 12) mod 12 in
          if add then ignore (Dsgraph.Graph.add_edge g u v)
          else ignore (Dsgraph.Graph.remove_edge g u v);
          check ())
        ops;
      let hits, misses = Over.Health_cache.stats cache in
      (* Every mutation forces at most one recompute; the paired re-reads
         must all have hit. *)
      !ok && hits >= misses && misses <= 1 + List.length ops)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_over_degree_cap;
    Alcotest.test_case "OVER: cap holds after a removal's refill (seed 47)" `Quick
      test_over_cap_after_removal_refill;
    QCheck_alcotest.to_alcotest prop_biased_walk_avoids_zero_weight;
    QCheck_alcotest.to_alcotest prop_validate_majority_only;
    QCheck_alcotest.to_alcotest prop_mix_in_range;
    QCheck_alcotest.to_alcotest prop_engine_invariants_under_scripts;
    QCheck_alcotest.to_alcotest prop_engine_exchange_conserves;
    QCheck_alcotest.to_alcotest prop_engine_rand_cl_valid;
    QCheck_alcotest.to_alcotest prop_snapshot_roundtrip_any_script;
    QCheck_alcotest.to_alcotest prop_valchan_batched_equals_reference;
    QCheck_alcotest.to_alcotest prop_valchan_batched_forged_majority;
    QCheck_alcotest.to_alcotest prop_randnum_equals_kernel_session;
    QCheck_alcotest.to_alcotest prop_health_cache_matches_recompute;
  ]
