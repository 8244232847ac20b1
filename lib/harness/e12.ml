(* E12 — end-to-end message-level NOW: the complete maintenance loop
   (Join / Leave / Split / Merge with exchange and its cascade) executed
   with real per-node messages on the simulation kernel, against a
   Byzantine population.  This is the highest-fidelity validation in the
   suite: every randNum share, walk token, validated transfer and swap is
   an actual authenticated message, and the >2/3-honest invariant and the
   size discipline are asserted after every operation.

   The trajectory is produced by the scenario layer's message-level churn
   driver (Scenario.Msg_driver) under a Random_churn strategy: the driver
   restores a ±10-node band around the initial population, corrupts
   arrivals by a budget-capped Bernoulli(tau) draw (noise behaviour), splits
   oversized clusters and merges undersized ones — the same maintenance
   loop the old bespoke harness hand-rolled. *)

module Table = Metrics.Table

let run ?(mode = Common.Quick) ?(seed = 1212L) () =
  let steps = Common.scale mode ~quick:60 ~full:300 in
  (* Cluster sizes must keep the honest majority comfortably whp for the
     whole run: at |C| ~ 12 and tau = 0.15 a long full-mode run eventually
     loses a majority (the small-cluster Chernoff tail) and the validated
     channels rightly break — so the full mode runs at |C| ~ 16 and a
     slightly smaller tau, where the margin is ~5 sigma. *)
  let n_clusters = 5 in
  let cluster_size = match mode with Common.Quick -> 12 | Common.Full -> 16 in
  let tau = match mode with Common.Quick -> 0.15 | Common.Full -> 0.12 in
  let spec =
    {
      Scenario.Spec.default with
      Scenario.Spec.name = "e12";
      steps;
      churn = Scenario.Spec.Strategy (Adversary.Random_churn 0.5);
      drive = Scenario.Spec.no_drive;
      behavior = Some "noise";
      tau;
      n_clusters;
      cluster_size;
      (* The historical initial placement (floor, not round): Bernoulli
         corruption of arrivals then fills the rest of the tau budget. *)
      byz_per_cluster = Some (int_of_float (tau *. float_of_int cluster_size));
      sample_start = false;
      sample_every = max 1 (steps / 10);
    }
  in
  let driver =
    Scenario.Msg_driver.create ~seed ~labels:[ ("experiment", "E12") ] spec
  in
  let s = Scenario.run_driver (module Scenario.Msg_driver) spec driver in
  let table =
    Table.create
      ~title:"E12 / full message-level NOW maintenance (real messages end-to-end)"
      ~columns:
        [
          "part"; "steps"; "splits"; "merges"; "size range"; "majority viol";
          "total msgs";
        ]
  in
  Table.add_row table
    [
      Table.S "msg-level"; Table.I s.Scenario.Stats.steps;
      Table.I s.Scenario.Stats.splits; Table.I s.Scenario.Stats.merges;
      Table.S
        (Printf.sprintf "[%d, %d]" s.Scenario.Stats.min_size
           s.Scenario.Stats.max_size);
      Table.I s.Scenario.Stats.majority_violations;
      Table.I s.Scenario.Stats.messages;
    ];
  (* All clusters must keep their honest majority at every sampled instant
     (at this tau and size the Chernoff tail allows rare grazing; a small
     allowance keeps the assertion honest).  Every churn operation must
     have gone through — a refused operation means a validated channel
     broke. *)
  let allowance = steps / 20 in
  let ok =
    s.Scenario.Stats.majority_violations <= allowance
    && s.Scenario.Stats.churn_failures = 0
    && s.Scenario.Stats.min_size >= 2
    && s.Scenario.Stats.messages > 0
  in
  Common.make_result ~id:"E12"
    ~title:"End-to-end message-level NOW (highest-fidelity validation)" ~table
    ~notes:
      [
        "every operation of the maintenance loop executed as real \
         authenticated messages by the scenario layer's message-level \
         churn driver: randNum escrows, walk tokens over validated \
         channels, swaps, view updates, splits and merges;";
        Printf.sprintf
          "honest-majority scans after every operation: %d instants below \
           2/3 honest across %d operations x %d clusters (Chernoff-tail \
           allowance %d at |C| ~ %d); %d churn operations refused."
          s.Scenario.Stats.majority_violations steps n_clusters allowance
          cluster_size s.Scenario.Stats.churn_failures;
      ]
    ~ok ()
