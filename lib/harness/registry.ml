type runner = Common.mode -> Common.result

let all : (string * runner) list =
  [
    ("E1", fun mode -> E1.run ~mode ());
    ("E2", fun mode -> E2.run ~mode ());
    ("E3", fun mode -> E3.run ~mode ());
    ("E4", fun mode -> E4.run ~mode ());
    ("E5", fun mode -> E5.run ~mode ());
    ("E6", fun mode -> E6.run ~mode ());
    ("E7", fun mode -> E7.run ~mode ());
    ("E8", fun mode -> E8.run ~mode ());
    ("E9", fun mode -> E9.run ~mode ());
    ("E10", fun mode -> E10.run ~mode ());
    ("E11", fun mode -> E11.run ~mode ());
    ("E12", fun mode -> E12.run ~mode ());
    ("E13", fun mode -> E13.run ~mode ());
    ("E14", fun mode -> E14.run ~mode ());
    ("E15", fun mode -> E15.run ~mode ());
    ("F1", fun mode -> F12.f1 ~mode ());
    ("F2", fun mode -> F12.f2 ~mode ());
    ("A1", fun mode -> A1.run ~mode ());
    ("A2", fun mode -> A2.run ~mode ());
  ]

let descriptions : (string * string) list =
  [
    ("E1", "Lemma 1 — >2/3 honest after full exchange (Chernoff tails)");
    ("E2", "Lemmas 2-3 — bounded divergence and O(log N) pull-back");
    ("E3", "Theorem 3 — all clusters >2/3 honest after polynomial churn");
    ("E4", "OVER — expander maintenance under polynomial vertex churn");
    ("E5", "Polylogarithmic maintenance costs (state vs message engines)");
    ("E6", "Initialisation cost O(N^{3/2} log N)");
    ("E7", "Cluster sizes stay within [k log N / l, l k log N]");
    ("E8", "Section 6 — broadcast ~O(n) vs O(n^2); sampling polylog vs O(n)");
    ("E9", "CTRW mixes to uniform; randCl attains |C|/n");
    ("E10", "Polynomial size variation with a dynamic number of clusters");
    ("E11", "Remark 2 — per-cluster Byzantine fraction at most 1/r (whp)");
    ("E12", "End-to-end message-level NOW (highest-fidelity validation)");
    ("E13", "Active Byzantine behaviour injection at protocol thresholds");
    ("E14", "Asynchrony — primitives under per-link latency (asim engine)");
    ("E15", "Scale — Theorem 3 / Lemma 1 at 10^5-10^6 nodes (flat arena)");
    ("F1", "Fig. 1 — initialisation vs maintenance costs");
    ("F2", "Fig. 2 — per-operation maintenance costs");
    ("A1", "Ablation — the two Merge semantics");
    ("A2", "Ablation — CTRW duration: mixing quality vs message cost");
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.assoc_opt id all

let run_ids ?(wrap = fun _id f -> f ()) ~mode ids =
  let selected =
    match ids with
    | [] -> all
    | ids ->
      List.map
        (fun id ->
          match find id with
          | Some r -> (String.uppercase_ascii id, r)
          | None ->
            invalid_arg
              (Printf.sprintf "unknown experiment id %S; available: %s" id
                 (String.concat ", " (List.map fst all))))
        ids
  in
  (* Independent experiments fan out across the Exec pool (each builds its
     own engines from its own seed); results are merged and printed in
     registry order, so the output is identical for any -j.  Experiments'
     own par_map calls degrade to sequential inside a pool worker, keeping
     the domain count bounded. *)
  let results =
    Exec.par_map (fun (id, runner) -> wrap id (fun () -> runner mode)) selected
  in
  List.iter Common.print_result results;
  results
