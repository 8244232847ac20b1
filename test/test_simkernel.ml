(* Tests for the synchronous message-passing kernel. *)

module Net = Simkernel.Net

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_delivery_next_round () =
  let net = Net.create () in
  let got = ref [] in
  Net.add_node net ~id:1 (fun ~round ~inbox ->
      if round = 1 then Net.send net ~src:1 ~dst:2 "hello";
      ignore inbox);
  Net.add_node net ~id:2 (fun ~round ~inbox ->
      ignore round;
      got := inbox @ !got);
  Net.run_round net;
  checki "not yet delivered" 0 (List.length !got);
  Net.run_round net;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "delivered with sender" [ (1, "hello") ] !got

let test_sender_is_stamped () =
  let net = Net.create () in
  let senders = ref [] in
  Net.add_node net ~id:5 (fun ~round ~inbox ->
      ignore round;
      senders := List.map fst inbox @ !senders);
  Net.add_node net ~id:9 (fun ~round ~inbox ->
      ignore inbox;
      if round = 1 then Net.send net ~src:9 ~dst:5 "x");
  Net.run_rounds net 2;
  Alcotest.check (Alcotest.list Alcotest.int) "true sender" [ 9 ] !senders

let test_inbox_sorted_by_sender () =
  let net = Net.create () in
  let got = ref [] in
  Net.add_node net ~id:0 (fun ~round ~inbox ->
      ignore round;
      if inbox <> [] then got := List.map fst inbox);
  List.iter
    (fun id ->
      Net.add_node net ~id (fun ~round ~inbox ->
          ignore inbox;
          if round = 1 then Net.send net ~src:id ~dst:0 "m"))
    [ 9; 3; 7 ];
  Net.run_rounds net 2;
  Alcotest.check (Alcotest.list Alcotest.int) "sorted senders" [ 3; 7; 9 ] !got

let test_remove_node_drops_messages () =
  let net = Net.create () in
  let received = ref 0 in
  Net.add_node net ~id:1 (fun ~round ~inbox ->
      ignore inbox;
      if round = 1 then Net.send net ~src:1 ~dst:2 "gone");
  Net.add_node net ~id:2 (fun ~round ~inbox ->
      ignore round;
      received := !received + List.length inbox);
  Net.run_round net;
  Net.remove_node net 2;
  Net.run_round net;
  checki "nothing received" 0 !received;
  checkb "alive check" false (Net.is_alive net 2);
  checkb "others alive" true (Net.is_alive net 1)

let test_dead_sender_rejected () =
  let net = Net.create () in
  List.iter
    (fun id -> Net.add_node net ~id (fun ~round ~inbox -> ignore (round, inbox)))
    [ 1; 2 ];
  Net.remove_node net 1;
  Alcotest.check_raises "dead sender" (Invalid_argument "Net.send: sender is not alive")
    (fun () -> Net.send net ~src:1 ~dst:1 "boo");
  Alcotest.check_raises "dead multicaster"
    (Invalid_argument "Net.send: sender is not alive") (fun () ->
      Net.multicast net ~src:1 ~dsts:[ 1; 2 ] "boo");
  checki "nothing counted" 0 (Net.messages_sent net);
  checki "nothing charged" 0 (Metrics.Ledger.total_messages (Net.ledger net))

let test_duplicate_node () =
  let net = Net.create () in
  Net.add_node net ~id:1 (fun ~round ~inbox -> ignore (round, inbox));
  Alcotest.check_raises "duplicate id" (Invalid_argument "Net.add_node: id already in use")
    (fun () -> Net.add_node net ~id:1 (fun ~round ~inbox -> ignore (round, inbox)))

let test_replace_handler () =
  let net = Net.create () in
  let calls = ref 0 in
  Net.add_node net ~id:1 (fun ~round ~inbox -> ignore (round, inbox));
  Net.replace_handler net ~id:1 (fun ~round ~inbox ->
      ignore (round, inbox);
      incr calls);
  Net.run_round net;
  checki "new handler ran" 1 !calls;
  Alcotest.check_raises "unknown node" (Invalid_argument "Net.replace_handler: unknown node")
    (fun () -> Net.replace_handler net ~id:77 (fun ~round ~inbox -> ignore (round, inbox)))

let test_message_and_round_accounting () =
  let net = Net.create () in
  Net.add_node net ~id:1 (fun ~round ~inbox ->
      ignore inbox;
      if round <= 2 then Net.multicast net ~src:1 ~dsts:[ 1; 2 ] ~label:"t" "m");
  Net.add_node net ~id:2 (fun ~round ~inbox -> ignore (round, inbox));
  Net.run_rounds net 3;
  checki "messages" 4 (Net.messages_sent net);
  checki "round counter" 3 (Net.round net);
  let ledger = Net.ledger net in
  checki "ledger label" 4 (Metrics.Ledger.label_messages ledger "t");
  checki "ledger rounds" 3 (Metrics.Ledger.total_rounds ledger)

let test_self_message () =
  let net = Net.create () in
  let got = ref false in
  Net.add_node net ~id:1 (fun ~round ~inbox ->
      if round = 1 then Net.send net ~src:1 ~dst:1 "self";
      if List.mem (1, "self") inbox then got := true);
  Net.run_rounds net 2;
  checkb "self delivery" true !got

let test_run_until () =
  let net = Net.create () in
  let counter = ref 0 in
  Net.add_node net ~id:1 (fun ~round ~inbox ->
      ignore (round, inbox);
      incr counter);
  let rounds = Net.run_until net (fun () -> !counter >= 5) in
  checki "stopped at 5" 5 rounds;
  Alcotest.check_raises "timeout"
    (Failure "Net.run_until: predicate not satisfied within max_rounds") (fun () ->
      ignore (Net.run_until net ~max_rounds:3 (fun () -> false)))

let test_nodes_sorted () =
  let net = Net.create () in
  List.iter
    (fun id -> Net.add_node net ~id (fun ~round ~inbox -> ignore (round, inbox)))
    [ 5; 1; 3 ];
  Alcotest.check (Alcotest.list Alcotest.int) "sorted" [ 1; 3; 5 ] (Net.nodes net)

let test_handler_removing_node_mid_round () =
  (* Node 1 removes node 2 during its handler; node 2's handler must not
     run afterwards in the same round. *)
  let net = Net.create () in
  let ran = ref false in
  Net.add_node net ~id:1 (fun ~round ~inbox ->
      ignore (round, inbox);
      Net.remove_node net 2);
  Net.add_node net ~id:2 (fun ~round ~inbox ->
      ignore (round, inbox);
      ran := true);
  Net.run_round net;
  checkb "removed node skipped" false !ran

(* ---------- the send-time delivery rule ---------- *)

let count_points name (dump : Trace.dump) =
  List.length
    (List.filter
       (function Trace.Point { name = n; _ } -> n = name | _ -> false)
       dump.Trace.events)

(* A send to an id nobody holds is counted and lost, even if the id
   registers before the next round; a send after it registers arrives. *)
let test_unknown_destination_lost () =
  let net = Net.create () in
  let got = ref [] in
  Net.add_node net ~id:1 (fun ~round:_ ~inbox:_ -> ());
  Net.send net ~src:1 ~dst:7 "early";
  Net.multicast net ~src:1 ~dsts:[ 7; 8 ] "early";
  Net.add_node net ~id:7 (fun ~round:_ ~inbox -> got := inbox @ !got);
  Net.run_round net;
  checki "counted" 3 (Net.messages_sent net);
  checki "lost" 0 (List.length !got);
  Net.send net ~src:1 ~dst:7 "late";
  Net.run_round net;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "a send after registration arrives" [ (1, "late") ] !got

(* [~except] skips exactly that id. *)
let test_multicast_except () =
  let net = Net.create () in
  let got = ref [] in
  List.iter
    (fun id ->
      Net.add_node net ~id (fun ~round:_ ~inbox ->
          List.iter (fun (src, ()) -> got := (src, id) :: !got) inbox))
    [ 1; 2; 3; 4 ];
  Net.multicast net ~src:2 ~dsts:[ 1; 2; 3; 4 ] ~except:2 ~label:"m" ();
  Net.run_round net;
  checki "n - 1 sent" 3 (Net.messages_sent net);
  checki "n - 1 charged" 3 (Metrics.Ledger.label_messages (Net.ledger net) "m");
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "everyone but the sender"
    [ (2, 1); (2, 3); (2, 4) ]
    (List.sort compare !got);
  Net.multicast net ~src:2 ~dsts:[ 1; 2; 3; 4 ] ~except:9 ~label:"m" ();
  checki "absent except skips nothing" 7 (Net.messages_sent net)

(* Random scripts of registrations, sends, multicasts (unknown ids,
   [~except]) and rounds: a run under a net-detail collector and a plain
   run must agree on every counter, every ledger label and every
   delivered inbox, and the traced run emits one [net.send.*] point per
   message. *)
type op =
  | Add of int
  | Remove of int
  | Send of int * int * bool
  | Multicast of int * int list * int option
  | Round

let print_op = function
  | Add id -> Printf.sprintf "add %d" id
  | Remove id -> Printf.sprintf "remove %d" id
  | Send (src, dst, deviant) ->
    Printf.sprintf "send %d->%d%s" src dst (if deviant then " deviant" else "")
  | Multicast (src, dsts, except) ->
    Printf.sprintf "multicast %d->[%s]%s" src
      (String.concat ";" (List.map string_of_int dsts))
      (match except with Some e -> Printf.sprintf " except %d" e | None -> "")
  | Round -> "round"

let gen_op =
  QCheck.Gen.(
    let id = int_range 0 5 in
    frequency
      [
        (3, map (fun id -> Add id) id);
        (1, map (fun id -> Remove id) id);
        (3, map3 (fun src dst deviant -> Send (src, dst, deviant)) id id bool);
        ( 3,
          map3
            (fun src dsts except -> Multicast (src, dsts, except))
            id (list_size (int_range 0 6) id) (opt id) );
        (2, return Round);
      ])

let run_script ops =
  let net = Net.create () in
  let log = ref [] in
  let handler id ~round ~inbox =
    if inbox <> [] then log := `Inbox (round, id, inbox) :: !log
  in
  let attempt f = try f () with Invalid_argument msg -> log := `Raised msg :: !log in
  List.iteri
    (fun i op ->
      match op with
      | Add id -> if not (Net.is_alive net id) then Net.add_node net ~id (handler id)
      | Remove id -> Net.remove_node net id
      | Send (src, dst, deviant) ->
        attempt (fun () -> Net.send net ~src ~dst ~label:"s" ~deviant i)
      | Multicast (src, dsts, except) ->
        attempt (fun () -> Net.multicast net ~src ~dsts ?except ~label:"m" i)
      | Round -> Net.run_round net)
    ops;
  Net.run_round net;
  ( Net.messages_sent net,
    Net.deviant_sent net,
    Metrics.Ledger.labels (Net.ledger net),
    List.rev !log )

let prop_traced_equals_untraced =
  QCheck.Test.make ~name:"count-only delivery == per-message delivery" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat ", " (List.map print_op ops))
       QCheck.Gen.(list_size (int_range 0 40) gen_op))
    (fun ops ->
      let traced, dump = Trace.profiled ~net_detail:true (fun () -> run_script ops) in
      let plain = run_script ops in
      let sent, _, _, _ = traced in
      traced = plain
      && count_points "net.send.s" dump + count_points "net.send.m" dump = sent)

let suite =
  [
    Alcotest.test_case "delivery next round" `Quick test_delivery_next_round;
    Alcotest.test_case "sender stamped" `Quick test_sender_is_stamped;
    Alcotest.test_case "inbox sorted" `Quick test_inbox_sorted_by_sender;
    Alcotest.test_case "remove drops messages" `Quick test_remove_node_drops_messages;
    Alcotest.test_case "dead sender rejected" `Quick test_dead_sender_rejected;
    Alcotest.test_case "duplicate id rejected" `Quick test_duplicate_node;
    Alcotest.test_case "replace handler" `Quick test_replace_handler;
    Alcotest.test_case "cost accounting" `Quick test_message_and_round_accounting;
    Alcotest.test_case "self message" `Quick test_self_message;
    Alcotest.test_case "run_until" `Quick test_run_until;
    Alcotest.test_case "nodes sorted" `Quick test_nodes_sorted;
    Alcotest.test_case "mid-round removal" `Quick test_handler_removing_node_mid_round;
    Alcotest.test_case "unknown destination at send time: lost" `Quick
      test_unknown_destination_lost;
    Alcotest.test_case "multicast except" `Quick test_multicast_except;
    QCheck_alcotest.to_alcotest prop_traced_equals_untraced;
  ]
