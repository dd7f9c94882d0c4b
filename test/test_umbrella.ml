(* Smoke test of the umbrella library: the short names resolve and a
   full pipeline works end to end through them. *)

open Crowdmax

let tc = Alcotest.test_case

let test_pipeline_through_umbrella () =
  let latency = Latency_model.linear ~delta:40.0 ~alpha:0.5 in
  let problem = Problem.create ~elements:50 ~budget:250 ~latency in
  let sol = Tdp.solve problem in
  let rng = Rng.create 17 in
  let truth = Ground_truth.random rng 50 in
  let cfg =
    Engine.config ~allocation:sol.Tdp.allocation ~selection:Selection.tournament
      ~latency_model:latency ()
  in
  let metrics = Metrics.create () in
  let r = Engine.run ~metrics rng cfg truth in
  Alcotest.check Alcotest.bool "correct" true r.Engine.correct;
  (* theory helpers reachable *)
  Alcotest.check Alcotest.int "Q function" 30 (Tournament.questions 20 5);
  Alcotest.check Alcotest.bool "bound below optimum" true
    (Bounds.latency_lower_bound latency ~elements:50 <= sol.Tdp.latency);
  (* serialization reachable *)
  let snap = Metrics.snapshot metrics in
  Alcotest.check Alcotest.bool "metrics recorded" true (snap <> []);
  match Serialize.metrics_of_json (Serialize.metrics_to_json snap) with
  | Ok snap' ->
      Alcotest.check Alcotest.bool "serde" true (Metrics.equal snap snap')
  | Error e -> Alcotest.fail e

let test_cost_through_umbrella () =
  let pts =
    Cost.frontier ~latency:Latency_model.paper_mturk ~elements:100
      ~budgets:[ 99; 500; 1000 ] ()
  in
  Alcotest.check Alcotest.bool "frontier built" true (pts <> [])

let suite =
  [
    ( "umbrella",
      [
        tc "pipeline" `Quick test_pipeline_through_umbrella;
        tc "cost frontier" `Quick test_cost_through_umbrella;
      ] );
  ]
