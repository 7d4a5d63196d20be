let () =
  Alcotest.run "low-congestion-shortcuts"
    [
      ("util", Test_util.suite);
      ("graph", Test_graph.suite);
      ("congest", Test_congest.suite);
      ("sim-diff", Test_sim_diff.suite);
      ("fingerprint", Test_fingerprints.suite);
      ("trace", Test_trace.suite);
      ("causal", Test_causal.suite);
      ("obs", Test_obs.suite);
      ("fault", Test_fault.suite);
      ("resilience", Test_resilience.suite);
      ("shortcut", Test_shortcut.suite);
      ("partwise", Test_partwise.suite);
      ("algos", Test_algos.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("experiments", Test_experiments.suite);
      ("integration", Test_integration.suite);
    ]
