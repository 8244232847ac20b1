(* Tests for the Byzantine agreement protocols: agreement + validity under
   every adversary behaviour, boundary resilience, cost sanity. *)

module PK = Agreement.Phase_king
module B = Agreement.Byz_behavior

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let committee n = List.init n (fun i -> i)

let byz_set ids strategy id = if List.mem id ids then Some strategy else None

let assert_agreement decisions =
  match decisions with
  | [] -> Alcotest.fail "no honest decisions"
  | (_, v) :: rest ->
    List.iter (fun (_, v') -> checki "agreement" v v') rest;
    v

let strategies =
  [
    ("silent", B.Silent);
    ("fixed", B.Fixed 1);
    ("equivocate", B.Equivocate (0, 1));
    ("noise", B.Random_noise 77);
  ]

(* ---------- Phase King ---------- *)

let test_pk_all_honest_validity () =
  let o =
    PK.run ~committee:(committee 8) ~input:(fun _ -> 3) ~byzantine:(fun _ -> None) ()
  in
  checki "validity" 3 (assert_agreement o.PK.decisions);
  checki "all decide" 8 (List.length o.PK.decisions)

let test_pk_mixed_inputs_agreement () =
  let o =
    PK.run ~committee:(committee 9)
      ~input:(fun id -> id mod 2)
      ~byzantine:(fun _ -> None)
      ()
  in
  ignore (assert_agreement o.PK.decisions)

let test_pk_byzantine_strategies () =
  (* n = 13 tolerates t = 3.  All honest share input 7: validity must hold
     regardless of the Byzantine strategy. *)
  List.iter
    (fun (name, strategy) ->
      let byz = byz_set [ 0; 5; 12 ] strategy in
      let o = PK.run ~committee:(committee 13) ~input:(fun _ -> 7) ~byzantine:byz () in
      let v = assert_agreement o.PK.decisions in
      Alcotest.check Alcotest.int (name ^ ": validity") 7 v;
      checki (name ^ ": honest count") 10 (List.length o.PK.decisions))
    strategies

let test_pk_byzantine_split_inputs () =
  (* Honest inputs differ; agreement must still hold for each strategy. *)
  List.iter
    (fun (name, strategy) ->
      let byz = byz_set [ 1; 6 ] strategy in
      let o =
        PK.run ~committee:(committee 12) ~input:(fun id -> id mod 2) ~byzantine:byz ()
      in
      ignore (assert_agreement o.PK.decisions);
      ignore name)
    strategies

let test_pk_byzantine_kings () =
  (* Make the first phases' kings Byzantine: ids 0 and 1 are kings of
     phases 0 and 1 in a sorted committee. *)
  let byz = byz_set [ 0; 1 ] (B.Equivocate (11, 22)) in
  let o = PK.run ~committee:(committee 9) ~input:(fun _ -> 4) ~byzantine:byz () in
  checki "validity despite bad kings" 4 (assert_agreement o.PK.decisions)

let test_pk_max_faulty () =
  checki "n=4" 0 (PK.max_faulty 4);
  checki "n=5" 1 (PK.max_faulty 5);
  checki "n=13" 3 (PK.max_faulty 13)

let test_pk_costs () =
  let o = PK.run ~committee:(committee 8) ~input:(fun _ -> 0) ~byzantine:(fun _ -> None) () in
  (* phases = t+1 = 2; rounds = 2*2+1. *)
  checki "rounds" 5 o.PK.rounds;
  checkb "messages bounded" true (o.PK.messages <= 2 * 8 * 8 * 3)

let test_pk_singleton () =
  let o = PK.run ~committee:[ 42 ] ~input:(fun _ -> 9) ~byzantine:(fun _ -> None) () in
  checki "single node decides its input" 9 (assert_agreement o.PK.decisions)

let test_pk_nonuniform_ids () =
  let ids = [ 100; 7; 55; 23; 81 ] in
  let o = PK.run ~committee:ids ~input:(fun _ -> 2) ~byzantine:(fun _ -> None) () in
  checki "validity" 2 (assert_agreement o.PK.decisions);
  checki "five decisions" 5 (List.length o.PK.decisions)

(* Randomized scenarios: random inputs with random Byzantine subsets
   within tolerance; agreement must always hold, and validity whenever
   honest inputs are unanimous. *)
let test_randomized_scenarios () =
  let rng = Prng.Rng.of_int 99 in
  for _ = 1 to 15 do
    let n = 5 + Prng.Rng.int rng 5 in
    let t_pk = PK.max_faulty n in
    let byz_ids =
      if t_pk = 0 then []
      else Prng.Rng.sample_distinct rng t_pk n
    in
    let unanimous = Prng.Rng.bool rng in
    let input id = if unanimous then 6 else id mod 3 in
    let strategy = snd (List.nth strategies (Prng.Rng.int rng 4)) in
    let byz = byz_set byz_ids strategy in
    let o = PK.run ~committee:(committee n) ~input ~byzantine:byz () in
    let v = assert_agreement o.PK.decisions in
    if unanimous then checki "pk validity" 6 v
  done

let suite =
  [
    Alcotest.test_case "PK all honest validity" `Quick test_pk_all_honest_validity;
    Alcotest.test_case "PK mixed inputs" `Quick test_pk_mixed_inputs_agreement;
    Alcotest.test_case "PK byzantine strategies" `Quick test_pk_byzantine_strategies;
    Alcotest.test_case "PK byzantine split inputs" `Quick test_pk_byzantine_split_inputs;
    Alcotest.test_case "PK byzantine kings" `Quick test_pk_byzantine_kings;
    Alcotest.test_case "PK max_faulty" `Quick test_pk_max_faulty;
    Alcotest.test_case "PK costs" `Quick test_pk_costs;
    Alcotest.test_case "PK singleton" `Quick test_pk_singleton;
    Alcotest.test_case "PK non-uniform ids" `Quick test_pk_nonuniform_ids;
    Alcotest.test_case "randomized scenarios" `Quick test_randomized_scenarios;
  ]
