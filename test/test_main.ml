(* Aggregates every suite into one alcotest binary: `dune runtest`. *)

let () =
  Alcotest.run "crowdmax"
    (Test_rng.suite @ Test_samplers.suite @ Test_stats.suite @ Test_parallel.suite
   @ Test_heap.suite @ Test_table.suite
   @ Test_ints.suite @ Test_json.suite @ Test_metrics.suite @ Test_alloc_free.suite
   @ Test_event_calendar.suite @ Test_answer_dag.suite
   @ Test_dag_model.suite @ Test_undirected.suite
   @ Test_max_ind.suite @ Test_linear_ext.suite @ Test_scoring.suite
   @ Test_expected_rc.suite @ Test_latency.suite @ Test_tournament.suite
   @ Test_problem.suite @ Test_allocation.suite @ Test_tdp.suite
   @ Test_bounds.suite @ Test_cost.suite
   @ Test_heuristics.suite @ Test_selection.suite @ Test_ground_truth.suite
   @ Test_worker.suite @ Test_platform.suite @ Test_rwl.suite
   @ Test_engine.suite @ Test_adaptive.suite @ Test_server.suite
   @ Test_topk.suite
   @ Test_experiments.suite @ Test_analysis.suite
   @ Test_sort.suite @ Test_serialize.suite
   @ Test_integration.suite @ Test_golden.suite
   @ Test_properties.suite)
