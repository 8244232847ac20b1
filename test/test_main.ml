let () =
  Alcotest.run "nowlib"
    [
      ("prng", Test_prng.suite);
      ("exec", Test_exec.suite);
      ("metrics", Test_metrics.suite);
      ("trace", Test_trace.suite);
      ("monitor", Test_monitor.suite);
      ("audit", Test_audit.suite);
      ("graph", Test_graph.suite);
      ("simkernel", Test_simkernel.suite);
      ("agreement", Test_agreement.suite);
      ("protocols", Test_protocols.suite);
      ("randwalk", Test_randwalk.suite);
      ("over", Test_over.suite);
      ("cluster", Test_cluster.suite);
      ("byzantine", Test_byzantine.suite);
      ("cluster-ops", Test_cluster_ops.suite);
      ("core", Test_core.suite);
      ("adversary", Test_adversary.suite);
      ("scenario", Test_scenario.suite);
      ("asim", Test_asim.suite);
      ("apps", Test_apps.suite);
      ("snapshot-batch-workload", Test_snapshot.suite);
      ("properties", Test_properties.suite);
      ("equivalence", Test_equivalence.suite);
      ("harness", Test_harness.suite);
      ("telemetry", Test_telemetry.suite);
      ("cli", Test_cli.suite);
    ]
