(* Integration tests: the cheap experiments of the harness must pass their
   own paper-shape assertions end-to-end.  The expensive ones (E3, E5,
   E10) are exercised by `now_sim experiments`; here we only check
   their machinery via the registry. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let run_silently runner =
  (* The experiments print nothing by themselves; Registry.run_ids prints,
     so call runners directly. *)
  runner Harness.Common.Quick

let test_registry_complete () =
  checki "nineteen experiments" 19 (List.length Harness.Registry.all);
  List.iter
    (fun id ->
      checkb ("registered: " ^ id) true (Harness.Registry.find id <> None))
    [
      "E1"; "E2"; "E3"; "E4"; "E5"; "E6"; "E7"; "E8"; "E9"; "E10"; "E11";
      "E12"; "E13"; "E14"; "E15"; "F1"; "F2"; "A1"; "A2";
    ];
  checkb "case-insensitive" true (Harness.Registry.find "e4" <> None);
  checkb "unknown rejected" true (Harness.Registry.find "E99" = None)

let experiment_ok id =
  match Harness.Registry.find id with
  | None -> Alcotest.fail ("missing experiment " ^ id)
  | Some runner ->
    let r = run_silently runner in
    checkb (id ^ " paper shape") true r.Harness.Common.ok;
    checkb (id ^ " has rows") true (Metrics.Table.rows r.Harness.Common.table <> [])

let test_e1 () = experiment_ok "E1"
let test_e2 () = experiment_ok "E2"
let test_e4 () = experiment_ok "E4"
let test_e6 () = experiment_ok "E6"
let test_e7 () = experiment_ok "E7"
let test_e8 () = experiment_ok "E8"
let test_e9 () = experiment_ok "E9"
let test_e11 () = experiment_ok "E11"
let test_e12 () = experiment_ok "E12"
let test_e13 () = experiment_ok "E13"
let test_e14 () = experiment_ok "E14"
let test_f1 () = experiment_ok "F1"
let test_a1 () = experiment_ok "A1"

let test_scale () =
  checki "quick" 3 (Harness.Common.scale Harness.Common.Quick ~quick:3 ~full:7);
  checki "full" 7 (Harness.Common.scale Harness.Common.Full ~quick:3 ~full:7)

let test_initial_population () =
  let rng = Prng.Rng.of_int 5 in
  let pop = Harness.Common.initial_population rng ~n:200 ~tau:0.25 in
  let byz =
    List.length (List.filter (fun h -> h = Now_core.Node.Byzantine) pop)
  in
  checki "exact budget" 50 byz;
  checki "population size" 200 (List.length pop)

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "initial population" `Quick test_initial_population;
    Alcotest.test_case "E1 end-to-end" `Slow test_e1;
    Alcotest.test_case "E2 end-to-end" `Slow test_e2;
    Alcotest.test_case "E4 end-to-end" `Slow test_e4;
    Alcotest.test_case "E6 end-to-end" `Slow test_e6;
    Alcotest.test_case "E7 end-to-end" `Slow test_e7;
    Alcotest.test_case "E8 end-to-end" `Slow test_e8;
    Alcotest.test_case "E9 end-to-end" `Slow test_e9;
    Alcotest.test_case "E11 end-to-end" `Slow test_e11;
    Alcotest.test_case "E12 end-to-end" `Slow test_e12;
    Alcotest.test_case "E13 end-to-end" `Slow test_e13;
    Alcotest.test_case "E14 end-to-end" `Slow test_e14;
    Alcotest.test_case "F1 end-to-end" `Slow test_f1;
    Alcotest.test_case "A1 end-to-end" `Slow test_a1;
  ]
