let () =
  Alcotest.run "spinnaker"
    [
      ("sim", Test_sim.suite);
      ("storage", Test_storage.suite);
      ("read-path", Test_read_path.suite);
      ("mvcc-chain", Test_mvcc_chain.suite);
      ("wal-properties", Test_wal_properties.suite);
      ("wal-differential", Test_wal_differential.suite);
      ("coord", Test_coord.suite);
      ("core-units", Test_core_units.suite);
      ("spinnaker", Test_spinnaker.suite);
      ("recovery-example", Test_recovery_example.suite);
      ("invariants", Test_invariants.suite);
      ("linearizability", Test_linearizability.suite);
      ("history-oracle", Test_history_differential.suite);
      ("txn", Test_txn.suite);
      ("nemesis", Test_nemesis.suite);
      ("shrink", Test_shrink.suite);
      ("eventual", Test_eventual.suite);
      ("masterslave", Test_masterslave.suite);
      ("observability", Test_observability.suite);
      ("workload", Test_workload.suite);
      ("scaleout", Test_scaleout.suite);
      ("participants", Test_participants.suite);
    ]
