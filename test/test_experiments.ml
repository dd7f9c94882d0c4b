module X = Crowdmax_experiments
module Model = Crowdmax_latency.Model

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let find_cell cells label x =
  match List.find_opt (fun c -> c.X.Fig13.label = label && c.X.Fig13.x = x) cells with
  | Some c -> c.X.Fig13.mean_latency
  | None -> Alcotest.fail (Printf.sprintf "missing cell %s @ %d" label x)

let test_fig11a_pipeline () =
  let f = X.Fig11a.run ~runs_per_size:5 ~seed:1 () in
  check_int "8 sizes measured" 8 (Array.length f.X.Fig11a.measured);
  check_bool "positive slope" true (f.X.Fig11a.alpha > 0.0);
  check_bool "overhead positive" true (f.X.Fig11a.delta > 0.0)

let test_fig11b_tdp_wins () =
  let f = X.Fig11b.run ~runs:3 ~seed:5 ~elements:120 ~budget:1000 () in
  let find l =
    List.find (fun b -> b.X.Fig11b.label = l) f.X.Fig11b.bars
  in
  let tdp = find "tDP+Tournament" in
  check_int "five bars" 5 (List.length f.X.Fig11b.bars);
  List.iter
    (fun bar ->
      check_bool
        (bar.X.Fig11b.label ^ " not better than tDP (predicted)")
        true
        (bar.X.Fig11b.predicted_latency >= tdp.X.Fig11b.predicted_latency -. 1e-6))
    f.X.Fig11b.bars;
  (* predicted and platform latencies are the same order of magnitude *)
  List.iter
    (fun bar ->
      let ratio = bar.X.Fig11b.real_latency /. bar.X.Fig11b.predicted_latency in
      check_bool "estimate tracks platform" true (ratio > 0.3 && ratio < 3.0))
    f.X.Fig11b.bars

let test_fig12_tournament_always_singleton () =
  let f = X.Fig12.run ~runs:10 ~seed:3 ~elements:60 () in
  List.iter
    (fun c ->
      if
        String.length c.X.Fig12.label > 10
        && String.sub c.X.Fig12.label (String.length c.X.Fig12.label - 10) 10
           = "Tournament"
      then
        Alcotest.check (Alcotest.float 1e-9)
          (c.X.Fig12.label ^ " singleton at every budget")
          1.0 c.X.Fig12.singleton_rate)
    f.X.Fig12.cells

let test_fig13a_tdp_always_best () =
  let f = X.Fig13.run_a ~runs:10 ~seed:9 ~budget:4000 () in
  let labels =
    List.sort_uniq compare (List.map (fun c -> c.X.Fig13.label) f.X.Fig13.cells)
  in
  List.iter
    (fun c0 ->
      let tdp = find_cell f.X.Fig13.cells "tDP+Tournament" c0 in
      List.iter
        (fun l ->
          check_bool
            (Printf.sprintf "%s >= tDP at c0=%d" l c0)
            true
            (find_cell f.X.Fig13.cells l c0 >= tdp -. 1e-6))
        labels)
    X.Fig13.collection_sizes

let test_fig13b_tdp_flat_after_plateau () =
  let f = X.Fig13.run_b ~runs:5 ~seed:11 ~elements:500 () in
  let at b = find_cell f.X.Fig13.cells "tDP+Tournament" b in
  Alcotest.check (Alcotest.float 1e-6) "4000 = 32000 (budget limiting)"
    (at 4000) (at 32000);
  (* at least one heuristic blows up at 32000 *)
  let blowup =
    List.exists
      (fun l ->
        l <> "tDP+Tournament"
        && find_cell f.X.Fig13.cells l 32000 > 2.0 *. at 32000)
      (List.sort_uniq compare (List.map (fun c -> c.X.Fig13.label) f.X.Fig13.cells))
  in
  check_bool "heuristics blow up (paper: 2x-4x)" true blowup

let test_fig14b_budget_limiting_monotone_in_p () =
  let f = X.Fig14.run_b ~elements:500 () in
  let used p b =
    let _, points = List.find (fun (pp, _) -> pp = p) f.X.Fig14.curves in
    List.assoc b points
  in
  (* steeper latency exponent -> tDP stops spending sooner *)
  check_bool "p=1.4 <= p=1.0" true (used 1.4 16000 <= used 1.0 16000);
  check_bool "p=1.8 <= p=1.4" true (used 1.8 16000 <= used 1.4 16000);
  (* the "others" line always spends everything up to choose2(500) *)
  List.iter
    (fun (b, u) -> check_int "others spend all" (min b 124750) u)
    f.X.Fig14.others

let test_fig15_runs () =
  let f = X.Fig15.run ~repeats:1 ~sizes:[ 100; 200 ] () in
  check_int "grid size" 8 (List.length f.X.Fig15.points);
  List.iter
    (fun p ->
      check_bool "timing non-negative" true (p.X.Fig15.seconds >= 0.0);
      check_bool "states recorded" true (p.X.Fig15.states_visited >= 0))
    f.X.Fig15.points

let test_findings_all_hold () =
  let f = X.Findings.run ~runs:15 ~elements:120 ~budget:1000 () in
  check_int "six findings" 6 (List.length f.X.Findings.findings);
  List.iter
    (fun fd ->
      check_bool
        (Printf.sprintf "finding %d holds (%s)" fd.X.Findings.id
           fd.X.Findings.evidence)
        true fd.X.Findings.holds)
    f.X.Findings.findings;
  check_bool "all_hold agrees" true (X.Findings.all_hold f)

let test_robustness_monotone () =
  let f = X.Robustness.run ~runs:15 ~elements:60 ~budget:400 () in
  check_int "grid size"
    (List.length X.Robustness.error_rates * List.length X.Robustness.vote_counts)
    (List.length f.X.Robustness.cells);
  (* more votes never hurt much at fixed error; low error beats high
     error at fixed votes (allow small sampling noise) *)
  let rate e v =
    (List.find
       (fun c -> c.X.Robustness.error_rate = e && c.X.Robustness.votes = v)
       f.X.Robustness.cells)
      .X.Robustness.correct_rate
  in
  check_bool "5 votes >= 1 vote at 20% error" true
    (rate 0.2 5 >= rate 0.2 1 -. 0.15);
  check_bool "5% error >= 30% error at 3 votes" true
    (rate 0.05 3 >= rate 0.3 3 -. 0.15)

(* The tentpole's acceptance bar: under a mid-run supply shift the
   closed loop recovers at least half the stale-to-omniscient latency
   gap, without giving up correctness. Seed-pinned (the committed
   default config); jobs > 1 keeps it within test-suite time and the
   aggregates are jobs-invariant anyway. *)
let test_fig_adapt_recovers_half_the_gap () =
  let f = X.Fig_adapt.run ~jobs:4 () in
  let r = X.Fig_adapt.recovery f in
  check_bool
    (Printf.sprintf "closed loop recovers >= 50%% of the gap (got %.0f%%)"
       (100.0 *. r))
    true (r >= 0.5);
  check_bool "real gap to recover" true
    (f.X.Fig_adapt.stale.X.Fig_adapt.mean_latency
    > f.X.Fig_adapt.omniscient.X.Fig_adapt.mean_latency);
  check_bool "drift was detected" true
    (f.X.Fig_adapt.closed.X.Fig_adapt.drift_detected > 0);
  check_bool "re-planned on drift" true
    (f.X.Fig_adapt.closed.X.Fig_adapt.replans_on_drift > 0);
  check_bool "no correctness loss" true
    (f.X.Fig_adapt.closed.X.Fig_adapt.correct_rate
    >= f.X.Fig_adapt.stale.X.Fig_adapt.correct_rate -. 0.1);
  (* the open-loop arms never re-fit *)
  check_int "stale arm never re-fits" 0 f.X.Fig_adapt.stale.X.Fig_adapt.refits;
  check_int "omniscient arm never re-fits" 0
    f.X.Fig_adapt.omniscient.X.Fig_adapt.refits

(* The concurrent-service acceptance bar: over a shared marketplace,
   contention-aware planning must beat the contention-oblivious fleet
   on mean latency — and the win must come through the re-plan
   machinery, not a quote confound (the oblivious arm never
   contention-replans by construction, and both arms share the solo
   calibration and deadline quotes). Seed-pinned committed default.
   40 runs = 240 queries per arm: the correctness check compares two
   binomial rates with a 0.1 margin, and at 8 runs (48 queries) the
   noise of that difference alone is ~0.1, so the check passed or
   failed with the draw stream. Over 1,200 queries per arm and six
   calibration seeds the two arms' correct rates differ by at most
   0.025. *)
let test_fig_server_aware_beats_oblivious () =
  let f = X.Fig_server.run ~jobs:4 ~runs:40 () in
  let saving = X.Fig_server.improvement f in
  check_bool
    (Printf.sprintf "aware saves fleet mean latency (got %.1f%%)"
       (100.0 *. saving))
    true (saving > 0.0);
  check_bool "positive fitted contention" true (f.X.Fig_server.beta > 0.0);
  check_bool "aware arm re-planned on load shifts" true
    (f.X.Fig_server.aware.X.Fig_server.contention_replans > 0);
  check_int "oblivious arm never contention-replans" 0
    f.X.Fig_server.oblivious.X.Fig_server.contention_replans;
  check_bool "no correctness loss" true
    (f.X.Fig_server.aware.X.Fig_server.correct_rate
    >= f.X.Fig_server.oblivious.X.Fig_server.correct_rate -. 0.1);
  (* The saving must not hinge on one lucky solo calibration: with a
     thin ladder some calibration draws fit a model under which both
     arms plan alike. Every one of these seeds must show it too. *)
  List.iter
    (fun calibration_seed ->
      let saving =
        X.Fig_server.improvement
          (X.Fig_server.run ~jobs:4 ~runs:40 ~calibration_seed ())
      in
      check_bool
        (Printf.sprintf "calibration seed %d: aware saves (got %.1f%%)"
           calibration_seed (100.0 *. saving))
        true (saving > 0.0))
    [ 23; 29; 31; 37; 41 ]

let test_series_table_renders () =
  let series =
    [
      { X.Common.name = "a"; points = [ (1.0, 2.0); (2.0, 3.0) ] };
      { X.Common.name = "b"; points = [ (1.0, 5.0) ] };
    ]
  in
  let t = X.Common.series_table ~x_label:"x" series in
  let out = Crowdmax_util.Table.render t in
  check_bool "mentions both series" true
    (String.length out > 0 && String.contains out 'a' && String.contains out 'b')

let suite =
  [
    ( "experiments",
      [
        tc "fig11a pipeline" `Slow test_fig11a_pipeline;
        tc "fig11b tDP wins" `Slow test_fig11b_tdp_wins;
        tc "fig12 tournament singleton" `Slow test_fig12_tournament_always_singleton;
        tc "fig13a tDP best" `Slow test_fig13a_tdp_always_best;
        tc "fig13b budget limiting" `Slow test_fig13b_tdp_flat_after_plateau;
        tc "fig14b monotone in p" `Quick test_fig14b_budget_limiting_monotone_in_p;
        tc "fig15 runs" `Slow test_fig15_runs;
        tc "findings all hold" `Slow test_findings_all_hold;
        tc "robustness monotone" `Slow test_robustness_monotone;
        tc "fig_adapt recovers half the gap" `Slow
          test_fig_adapt_recovers_half_the_gap;
        tc "fig_server aware beats oblivious" `Slow
          test_fig_server_aware_beats_oblivious;
        tc "series table" `Quick test_series_table_renders;
      ] );
  ]
