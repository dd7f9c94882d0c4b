(* Golden values: deterministic quantities pinned to what the paper
   reports (or to first-run values of this implementation, where the
   paper gives only curves). Any change to these is a behaviour change
   to the reproduction and must be deliberate. *)

module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Allocation = Crowdmax_core.Allocation
module Heuristics = Crowdmax_core.Heuristics
module T = Crowdmax_tournament.Tournament
module E = Crowdmax_runtime.Engine
module S = Crowdmax_selection.Selection
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl
module Worker = Crowdmax_crowd.Worker

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_ints = Alcotest.check Alcotest.(list int)
let mturk = Model.paper_mturk

let tdp c0 b = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:mturk)

(* Sec. 6.5: "tDP produces the same allocation, (2250, 1225), for any
   budget available, after 4000 questions, i.e., tDP only uses 3475". *)
let test_paper_654_allocation () =
  List.iter
    (fun b ->
      let s = tdp 500 b in
      check_ints
        (Printf.sprintf "allocation at b=%d" b)
        [ 2250; 1225 ]
        (Allocation.round_budgets s.Tdp.allocation);
      check_int "questions used" 3475 s.Tdp.questions_used)
    [ 4000; 8000; 16000; 32000 ]

(* Sec. 6.4: "for 250 elements, uHF generates allocation
   (1000, 1000, 1000, 1000), while tDP generates allocation (884, 465)". *)
let test_paper_644_allocations () =
  check_ints "tDP at c0=250 b=4000" [ 884; 465 ]
    (Allocation.round_budgets (tdp 250 4000).Tdp.allocation);
  check_ints "uHF at c0=250 b=4000"
    [ 1000; 1000; 1000; 1000 ]
    (Allocation.round_budgets (Heuristics.uhf ~elements:250 ~budget:4000))

(* Fig. 14(b) limit points under L = 239 + 0.06 q^p. *)
let test_fig14b_limit_points () =
  let used p b =
    (Tdp.solve
       (Problem.create ~elements:500 ~budget:b
          ~latency:(Model.power ~delta:239.0 ~alpha:0.06 ~p)))
      .Tdp.questions_used
  in
  check_int "p=1.4 limit" 797 (used 1.4 16000);
  check_int "p=1.8 limit" 565 (used 1.8 16000)

(* Fig. 2 / Fig. 3 / Fig. 5 tournament-graph arithmetic. *)
let test_paper_graph_arithmetic () =
  check_int "G_T(20,5)" 30 (T.questions 20 5);
  check_int "G_T(24,5)" 46 (T.questions 24 5);
  check_int "Q(100,25)" 150 (T.questions 100 25);
  check_int "Q(50,25)" 25 (T.questions 50 25);
  check_int "choose2 500" 124750 (Problem.max_useful_budget ~elements:500);
  check_int "choose2 1000" 499500 (Problem.max_useful_budget ~elements:1000)

(* Sec. 5.1 worked example, all four heuristics. *)
let test_paper_51_heuristics () =
  let budgets h = Allocation.round_budgets (h ~elements:24 ~budget:51) in
  check_ints "HE" [ 12; 6; 33 ] (budgets Heuristics.he);
  check_ints "HF" [ 44; 4; 2; 1 ] (budgets Heuristics.hf);
  check_ints "uHE" [ 17; 17; 17 ] (budgets Heuristics.uhe);
  check_ints "uHF" [ 13; 13; 13; 12 ] (budgets Heuristics.uhf)

(* Sec. 2.2 example: with L = 100 + q, (40,8,1) costs 308 and
   (40,20,5,1) costs 360; the optimum at b=108 is 305 via (40,10,1). *)
let test_paper_22_example () =
  let l = Model.linear ~delta:100.0 ~alpha:1.0 in
  let s = Tdp.solve (Problem.create ~elements:40 ~budget:108 ~latency:l) in
  Alcotest.check (Alcotest.float 1e-9) "optimal latency" 305.0 s.Tdp.latency;
  check_ints "optimal sequence" [ 40; 10; 1 ] s.Tdp.sequence;
  Alcotest.check (Alcotest.float 1e-9) "(40,8,1) = 308" 308.0
    (Allocation.predicted_latency (Allocation.of_count_sequence [ 40; 8; 1 ]) l);
  Alcotest.check (Alcotest.float 1e-9) "(40,20,5,1) = 360" 360.0
    (Allocation.predicted_latency
       (Allocation.of_count_sequence [ 40; 20; 5; 1 ])
       l)

(* Engine aggregates, pinned bit-for-bit.

   Each line below is the IEEE-754 hex (Int64.bits_of_float) of every
   statistical field of an [Engine.replicate] aggregate, captured from
   the engine BEFORE the deadline/straggler machinery and the
   majority-vote tie fix landed. The default config ([Wait_all] +
   [Drop]) must keep reproducing them exactly, for any [jobs]: that is
   the guarantee that the new code paths are truly dormant by default.
   The simulated configs use odd vote counts (3, 5), so the even-vote
   tie-break fix cannot perturb them either. The two simulated rows were
   re-pinned once, deliberately, when the platform's service-time and
   patience samplers changed (ziggurat normals, inverted geometric
   patience): same stream, different variates. The oracle rows draw
   nothing from those samplers and did not move.

   Field order: mean, stddev, median, p95 latency; singleton, correct
   rate; mean questions, mean rounds. *)
let golden_aggregates =
  [
    ( "oracle_tournament",
      `Oracle, `Tournament, 40, 200, 1, 16,
      [ "407e44cccccccccf"; "3d48c97ef43f7248"; "407e44cccccccccc";
        "407e44cccccccccc"; "3ff0000000000000"; "3ff0000000000000";
        "405a400000000000"; "4000000000000000" ] );
    ( "oracle_ct25",
      `Oracle, `Ct25, 30, 300, 7, 12,
      [ "407e233333333331"; "3d491132de9a584c"; "407e233333333334";
        "407e233333333334"; "3ff0000000000000"; "3ff0000000000000";
        "4051800000000000"; "4000000000000000" ] );
    ( "simulated_rwl",
      `Simulated, `Tournament, 30, 200, 5, 10,
      [ "40803e06f297ecbb"; "4043ba15a0d4537b"; "40805bfbcc81e7fe";
        "40820cd12c2707b0"; "3ff0000000000000"; "3fe0000000000000";
        "4051800000000000"; "4000000000000000" ] );
  ]

let golden_source = function
  | `Oracle -> E.Oracle
  | `Simulated ->
      E.Simulated
        {
          platform = Platform.create ();
          rwl = { Rwl.votes = 3; error = Worker.Uniform 0.15 };
        }

let test_engine_aggregate_hex () =
  List.iter
    (fun (name, src, sel, elements, budget, seed, runs, hex) ->
      let sol = Tdp.solve (Problem.create ~elements ~budget ~latency:mturk) in
      let selection =
        match sel with `Tournament -> S.tournament | `Ct25 -> S.ct25
      in
      List.iter
        (fun jobs ->
          let cfg =
            E.config ~source:(golden_source src)
              ~allocation:sol.Tdp.allocation ~selection ~latency_model:mturk ()
          in
          (* Metrics collection must be invisible to the aggregates: the
             plain path and the metrics-enabled path both have to keep
             reproducing the pinned pre-observability hex. *)
          List.iter
            (fun (label, a) ->
              let got =
                List.map
                  (fun v -> Printf.sprintf "%Lx" (Int64.bits_of_float v))
                  [ a.E.mean_latency; a.E.stddev_latency; a.E.median_latency;
                    a.E.p95_latency; a.E.singleton_rate; a.E.correct_rate;
                    a.E.mean_questions; a.E.mean_rounds ]
              in
              Alcotest.check
                Alcotest.(list string)
                (Printf.sprintf "%s (jobs=%d, %s)" name jobs label)
                hex got)
            [
              ("metrics off", E.replicate ~jobs ~runs ~seed cfg ~elements);
              ( "metrics on",
                fst (E.replicate_with_metrics ~jobs ~runs ~seed cfg ~elements)
              );
            ])
        [ 1; 4 ])
    golden_aggregates

(* Adaptive aggregates with the default Off re-fit policy, pinned
   bit-for-bit.

   The oracle rows were captured from the adaptive runtime BEFORE the
   closed-loop (observe -> re-fit -> re-solve) machinery landed: with
   [refit = Off] the controller must consume the exact historical rng
   draw sequence, so these hexes are the guarantee the closed loop is
   truly dormant by default. The simulated row pins the
   platform-driven path for any [jobs] — the acceptance pin for
   [--refit off] — and was re-pinned with the engine's simulated rows
   when the platform samplers changed. Field order as above. *)
let adaptive_golden_aggregates =
  [
    ( "adaptive_oracle_a",
      `Oracle, 40, 200, 31, 12,
      [ "407e44cccccccccf"; "3d491132de9a584c"; "407e44cccccccccc";
        "407e44cccccccccc"; "3ff0000000000000"; "3ff0000000000000";
        "405a400000000000"; "4000000000000000" ] );
    ( "adaptive_oracle_b",
      `Oracle, 25, 400, 33, 10,
      [ "4070100000000000"; "0"; "4070100000000000";
        "4070100000000000"; "3ff0000000000000"; "3ff0000000000000";
        "4072c00000000000"; "3ff0000000000000" ] );
    ( "adaptive_simulated",
      `Simulated, 30, 200, 35, 8,
      [ "4080928d05b9c672"; "403f452271761925"; "40809706246d827e";
        "4081efcc19b97428"; "3ff0000000000000"; "3fe8000000000000";
        "4051800000000000"; "4000000000000000" ] );
  ]

let test_adaptive_aggregate_hex () =
  let module A = Crowdmax_runtime.Adaptive in
  List.iter
    (fun (name, src, elements, budget, seed, runs, hex) ->
      let problem = Problem.create ~elements ~budget ~latency:mturk in
      List.iter
        (fun jobs ->
          let a =
            A.replicate ~jobs ~source:(golden_source src) ~refit:A.Off ~runs
              ~seed ~problem ~selection:S.tournament ()
          in
          let e = a.A.engine_aggregate in
          let got =
            List.map
              (fun v -> Printf.sprintf "%Lx" (Int64.bits_of_float v))
              [ e.E.mean_latency; e.E.stddev_latency; e.E.median_latency;
                e.E.p95_latency; e.E.singleton_rate; e.E.correct_rate;
                e.E.mean_questions; e.E.mean_rounds ]
          in
          Alcotest.check
            Alcotest.(list string)
            (Printf.sprintf "%s (jobs=%d)" name jobs)
            hex got)
        [ 1; 4 ])
    adaptive_golden_aggregates

let test_metrics_snapshot_deterministic () =
  (* The merged simulated-metric document is part of the determinism
     contract: identical across repeat invocations and for any jobs. *)
  let module M = Crowdmax_obs.Metrics in
  let cfg =
    E.config ~source:(golden_source `Simulated)
      ~allocation:(tdp 30 200).Tdp.allocation ~selection:S.tournament
      ~latency_model:mturk ()
  in
  let snap jobs =
    M.simulated_only
      (snd (E.replicate_with_metrics ~jobs ~runs:10 ~seed:5 cfg ~elements:30))
  in
  let reference = snap 1 in
  Alcotest.check Alcotest.bool "non-empty" true (reference <> []);
  List.iter
    (fun jobs ->
      Alcotest.check Alcotest.bool
        (Printf.sprintf "jobs=%d snapshot identical" jobs)
        true
        (M.equal reference (snap jobs)))
    [ 1; 2; 4 ]

let suite =
  [
    ( "golden",
      [
        tc "Sec 6.5 budget limiting" `Quick test_paper_654_allocation;
        tc "Sec 6.4 allocations" `Quick test_paper_644_allocations;
        tc "Fig 14(b) limit points" `Quick test_fig14b_limit_points;
        tc "tournament arithmetic" `Quick test_paper_graph_arithmetic;
        tc "Sec 5.1 heuristics" `Quick test_paper_51_heuristics;
        tc "Sec 2.2 example" `Quick test_paper_22_example;
        tc "adaptive Off-policy aggregates bit-identical to goldens" `Quick
          test_adaptive_aggregate_hex;
        tc "engine aggregates bit-identical to pre-deadline engine" `Quick
          test_engine_aggregate_hex;
        tc "metrics snapshot deterministic across jobs" `Quick
          test_metrics_snapshot_deterministic;
      ] );
  ]
