module E = Crowdmax_runtime.Engine
module S = Crowdmax_selection.Selection
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Allocation = Crowdmax_core.Allocation
module Heuristics = Crowdmax_core.Heuristics
module G = Crowdmax_crowd.Ground_truth
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl
module W = Crowdmax_crowd.Worker
module Rng = Crowdmax_util.Rng
module Pairs = Crowdmax_util.Pairs
module Server = Crowdmax_server.Server

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let checkf eps = Alcotest.check (Alcotest.float eps)

let model = Model.linear ~delta:100.0 ~alpha:1.0

let tdp_alloc c0 b =
  (Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model)).Tdp.allocation

let oracle_cfg ?(selection = S.tournament) ?pad alloc =
  E.config ?pad_to_round_budget:pad ~allocation:alloc ~selection ~latency_model:model ()

let test_finds_true_max () =
  let rng = Rng.create 3 in
  for _ = 1 to 25 do
    let c0 = 2 + Rng.int rng 60 in
    let alloc = tdp_alloc c0 (4 * c0) in
    let truth = G.random rng c0 in
    let r = E.run rng (oracle_cfg alloc) truth in
    check_bool "correct" true r.E.correct;
    check_bool "singleton" true r.E.singleton;
    check_int "chosen is true max" (G.max_element truth) r.E.chosen
  done

let test_latency_matches_tdp_prediction () =
  (* with oracle answers + tournament selection, the engine's latency
     equals the tDP objective value *)
  let rng = Rng.create 5 in
  let c0 = 50 in
  let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:300 ~latency:model) in
  let truth = G.random rng c0 in
  let r = E.run rng (oracle_cfg sol.Tdp.allocation) truth in
  checkf 1e-6 "engine = DP objective" sol.Tdp.latency r.E.total_latency;
  check_int "questions" sol.Tdp.questions_used r.E.questions_posted

let test_trace_is_consistent () =
  let rng = Rng.create 7 in
  let alloc = tdp_alloc 40 200 in
  let truth = G.random rng 40 in
  let r = E.run rng (oracle_cfg alloc) truth in
  check_int "trace length" r.E.rounds_run (List.length r.E.trace);
  let rec walk prev = function
    | [] -> ()
    | rr :: rest ->
        check_int "candidates chain" prev rr.E.candidates_before;
        check_bool "rounds shrink candidates" true
          (rr.E.candidates_after <= rr.E.candidates_before);
        check_bool "latency positive" true (rr.E.round_latency > 0.0);
        walk rr.E.candidates_after rest
  in
  walk 40 r.E.trace;
  (match List.rev r.E.trace with
  | last :: _ -> check_int "ends at 1" 1 last.E.candidates_after
  | [] -> Alcotest.fail "no trace");
  checkf 1e-9 "latency adds up"
    (List.fold_left (fun acc rr -> acc +. rr.E.round_latency) 0.0 r.E.trace)
    r.E.total_latency

let test_early_stop_on_singleton () =
  (* generous allocation: extra rounds after reaching one candidate must
     not run *)
  let alloc = Allocation.of_round_budgets [ 45; 45; 45; 45; 45 ] in
  let rng = Rng.create 9 in
  let truth = G.random rng 10 in
  let r = E.run rng (oracle_cfg alloc) truth in
  (* round 1: G_T(10,1) fits in 45 questions -> finished in one round *)
  check_int "one round" 1 r.E.rounds_run;
  check_bool "singleton" true r.E.singleton

let test_padding_charges_full_budget () =
  (* 6 candidates, round budget 33: only 15 distinct pairs exist, so 18
     redundant fillers are posted (HE's behaviour in the paper) *)
  let alloc = Allocation.of_round_budgets [ 33 ] in
  let rng = Rng.create 11 in
  let truth = G.random rng 6 in
  let r = E.run rng (oracle_cfg alloc) truth in
  check_int "posted = budget" 33 r.E.questions_posted;
  checkf 1e-9 "latency of the padded batch" (Model.eval model 33) r.E.total_latency;
  match r.E.trace with
  | [ rr ] ->
      check_int "15 distinct" 15 rr.E.distinct_questions;
      check_int "18 padded" 18 rr.E.padded_questions
  | _ -> Alcotest.fail "expected one round"

let test_padding_disabled () =
  let alloc = Allocation.of_round_budgets [ 33 ] in
  let rng = Rng.create 11 in
  let truth = G.random rng 6 in
  let r = E.run rng (oracle_cfg ~pad:false alloc) truth in
  check_int "only distinct posted" 15 r.E.questions_posted;
  checkf 1e-9 "cheaper round" (Model.eval model 15) r.E.total_latency

let test_insufficient_allocation_no_singleton () =
  (* one tiny round for many elements: the run must end non-singleton
     with a scored best guess *)
  let alloc = Allocation.of_round_budgets [ 2 ] in
  let rng = Rng.create 13 in
  let truth = G.random rng 10 in
  let r = E.run rng (oracle_cfg alloc) truth in
  check_bool "no singleton" false r.E.singleton;
  check_bool "still picks something" true (r.E.chosen >= 0 && r.E.chosen < 10)

let test_single_element_collection () =
  let alloc = Allocation.of_round_budgets [] in
  let rng = Rng.create 15 in
  let truth = G.random rng 1 in
  let r = E.run rng (oracle_cfg alloc) truth in
  check_bool "trivially correct" true r.E.correct;
  check_int "no rounds" 0 r.E.rounds_run;
  checkf 1e-9 "no latency" 0.0 r.E.total_latency

let test_heuristic_allocations_terminate () =
  let rng = Rng.create 17 in
  List.iter
    (fun Heuristics.{ name; allocate } ->
      let alloc = allocate ~elements:30 ~budget:120 in
      let truth = G.random rng 30 in
      let r = E.run rng (oracle_cfg alloc) truth in
      check_bool (name ^ " singleton") true r.E.singleton;
      check_bool (name ^ " correct") true r.E.correct)
    Heuristics.all

let test_simulated_source_with_rwl () =
  let platform = Platform.create () in
  let cfg =
    E.config
      ~source:(E.Simulated { platform; rwl = { Rwl.votes = 1; error = W.Perfect } })
      ~allocation:(tdp_alloc 20 100) ~selection:S.tournament ~latency_model:model ()
  in
  let rng = Rng.create 19 in
  let truth = G.random rng 20 in
  let r = E.run rng cfg truth in
  check_bool "correct with perfect simulated workers" true r.E.correct;
  check_bool "platform latency dominates" true (r.E.total_latency > 100.0)

let test_replicate_aggregates () =
  let alloc = tdp_alloc 25 120 in
  let agg = E.replicate ~runs:30 ~seed:7 (oracle_cfg alloc) ~elements:25 in
  check_int "runs" 30 agg.E.runs;
  checkf 1e-9 "all correct" 1.0 agg.E.correct_rate;
  checkf 1e-9 "all singleton" 1.0 agg.E.singleton_rate;
  check_bool "positive latency" true (agg.E.mean_latency > 0.0);
  check_bool "median <= p95" true (agg.E.median_latency <= agg.E.p95_latency);
  check_bool "p95 plausible" true
    (agg.E.p95_latency >= agg.E.mean_latency -. (3.0 *. agg.E.stddev_latency))

let test_replicate_rejects_zero_runs () =
  let alloc = tdp_alloc 5 10 in
  Alcotest.check_raises "runs" (Invalid_argument "Engine.replicate: runs < 1")
    (fun () -> ignore (E.replicate ~runs:0 ~seed:1 (oracle_cfg alloc) ~elements:5))

let test_deterministic_given_seed () =
  let alloc = tdp_alloc 30 150 in
  let run () =
    let rng = Rng.create 12345 in
    let truth = G.random rng 30 in
    (E.run rng (oracle_cfg alloc) truth).E.total_latency
  in
  checkf 1e-12 "reproducible" (run ()) (run ())

(* --- deadline-bounded rounds -------------------------------------------- *)

let simulated_cfg ?(votes = 3) ?(err = 0.15) ~deadline ~straggler alloc =
  E.config
    ~source:
      (E.Simulated
         { platform = Platform.create (); rwl = { Rwl.votes; error = W.Uniform err } })
    ~deadline ~straggler ~allocation:alloc ~selection:S.tournament
    ~latency_model:model ()

let test_policy_validation () =
  let alloc = tdp_alloc 10 40 in
  let rng = Rng.create 1 in
  let truth = G.random rng 10 in
  let raises msg deadline straggler =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (E.run rng (simulated_cfg ~deadline ~straggler alloc) truth))
  in
  raises "Engine.run: Fixed deadline must be > 0" (E.Fixed 0.0) E.Drop;
  raises "Engine.run: Fixed deadline must be > 0" (E.Fixed (-5.0)) E.Drop;
  raises "Engine.run: Quantile must be in (0, 1]" (E.Quantile 0.0) E.Drop;
  raises "Engine.run: Quantile must be in (0, 1]" (E.Quantile 1.5) E.Drop;
  raises "Engine.run: Reissue retry cap < 0" E.Wait_all (E.Reissue (-1))

let test_source_vote_validation () =
  (* The simulated source rejects a vote count below one when the config
     is built, before any round could post it; so do the runs that take
     a source directly, and a hand-edited config at run time. *)
  let alloc = tdp_alloc 10 40 in
  let rng = Rng.create 2 in
  let msg = "Engine.config: votes < 1" in
  Alcotest.check_raises "simulated" (Invalid_argument msg) (fun () ->
      ignore
        (simulated_cfg ~votes:0 ~deadline:E.Wait_all ~straggler:E.Drop alloc));
  let source votes =
    E.Simulated
      { platform = Platform.create (); rwl = { Rwl.votes; error = W.Perfect } }
  in
  Alcotest.check_raises "negative votes" (Invalid_argument msg) (fun () ->
      ignore
        (E.config ~source:(source (-1)) ~allocation:alloc
           ~selection:S.tournament ~latency_model:model ()));
  let cfg = { (oracle_cfg alloc) with E.source = source 0 } in
  Alcotest.check_raises "hand-edited config"
    (Invalid_argument "Engine.run: votes < 1") (fun () ->
      ignore (E.run rng cfg (G.random rng 10)));
  Alcotest.check_raises "adaptive" (Invalid_argument "Adaptive.run: votes < 1")
    (fun () ->
      ignore
        (Crowdmax_runtime.Adaptive.run rng ~source:(source 0)
           ~problem:(Problem.create ~elements:10 ~budget:40 ~latency:model)
           ~selection:S.tournament (G.random rng 10)))

let test_zero_question_rounds_keep_trace_dense () =
  (* a selector that refuses to ask anything: every allocation slot must
     still emit a (zero-question, zero-latency) trace record, so trace
     density survives — consumers index records by round *)
  let mute =
    S.make "mute" (fun _ _ _ -> ())
  in
  let alloc = Allocation.of_round_budgets [ 7; 7; 7 ] in
  let cfg =
    E.config ~pad_to_round_budget:false ~allocation:alloc ~selection:mute
      ~latency_model:model ()
  in
  let rng = Rng.create 63 in
  let truth = G.random rng 6 in
  let r = E.run rng cfg truth in
  check_int "three rounds run" 3 r.E.rounds_run;
  check_int "trace dense" 3 (List.length r.E.trace);
  List.iteri
    (fun i rr ->
      check_int "round_index" i rr.E.round_index;
      check_int "no questions" 0 rr.E.distinct_questions;
      check_int "no padding" 0 rr.E.padded_questions;
      checkf 1e-9 "no latency" 0.0 rr.E.round_latency;
      check_int "candidates untouched" 6 rr.E.candidates_before;
      check_int "still untouched" 6 rr.E.candidates_after)
    r.E.trace;
  check_bool "no singleton" false r.E.singleton;
  checkf 1e-9 "zero latency total" 0.0 r.E.total_latency

let test_wait_all_ignores_straggler_policy () =
  (* under Wait_all nothing is ever cut off, so straggler policy cannot
     matter: bit-identical runs *)
  let alloc = tdp_alloc 20 100 in
  let go straggler =
    let rng = Rng.create 65 in
    let truth = G.random rng 20 in
    E.run rng (simulated_cfg ~deadline:E.Wait_all ~straggler alloc) truth
  in
  let a = go E.Drop and b = go E.Carry_forward in
  check_int "same chosen" a.E.chosen b.E.chosen;
  checkf 1e-12 "same latency" a.E.total_latency b.E.total_latency;
  List.iter2
    (fun ra rb ->
      check_int "no unanswered" 0 ra.E.unanswered_questions;
      check_int "no reissues" 0 rb.E.reissued_questions;
      check_bool "no deadline hit" false ra.E.deadline_hit)
    a.E.trace b.E.trace

(* A [Fixed] cutoff that binds on any draw stream, derived from the
   platform config rather than tuned to one. Round 1 of [alloc] posts
   [raw] = budget * votes questions; the batch is invisible for
   [post_overhead] seconds, and then at its peak arrival rate — every
   arrival bringing [patience_mean] answers on average — needs about
   [raw / (peak_rate * patience_mean)] seconds more. The cutoff allows a
   quarter of that, so closing the batch in time would take several
   times the expected work in a window where a handful of workers
   arrive. The preconditions are asserted, not assumed. *)
let binding_cutoff platform alloc ~votes =
  let c = Platform.config platform in
  let raw =
    match Allocation.round_budgets alloc with q :: _ -> q * votes | [] -> 0
  in
  let peak =
    c.Platform.base_rate
    +. (c.Platform.attract_per_question
       *. (float_of_int raw ** c.Platform.visibility_exponent))
  in
  let need = float_of_int raw /. (peak *. c.Platform.patience_mean) in
  let post = c.Platform.post_overhead in
  let cutoff = post +. (need /. 4.0) in
  check_bool "round 1 posts raw questions" true (raw > 0);
  check_bool "cutoff falls after the batch becomes visible" true (cutoff > post);
  check_bool "cutoff falls well inside round 1's work window" true
    (cutoff < post +. need);
  cutoff

let test_deadline_cuts_round_latency () =
  (* a fixed deadline bounds every round's recorded latency *)
  let alloc = tdp_alloc 30 150 in
  let cutoff = binding_cutoff (Platform.create ()) alloc ~votes:3 in
  let rng = Rng.create 67 in
  let truth = G.random rng 30 in
  let r =
    E.run rng
      (simulated_cfg ~deadline:(E.Fixed cutoff) ~straggler:E.Drop alloc)
      truth
  in
  List.iter
    (fun rr ->
      check_bool "bounded" true (rr.E.round_latency <= cutoff +. 1e-9))
    r.E.trace;
  check_bool "some round hit the deadline" true
    (List.exists (fun rr -> rr.E.deadline_hit) r.E.trace)

let test_carry_forward_reissues () =
  (* deadline short enough that round 1 strands questions: under
     Carry_forward later rounds must repost them; under Drop they must
     not *)
  let alloc = tdp_alloc 60 400 in
  let cutoff = binding_cutoff (Platform.create ()) alloc ~votes:3 in
  let go straggler =
    let rng = Rng.create 3 in
    let truth = G.random rng 60 in
    E.run rng (simulated_cfg ~deadline:(E.Fixed cutoff) ~straggler alloc) truth
  in
  let dropped = go E.Drop and carried = go E.Carry_forward in
  check_bool "round 1 stranded questions" true
    (match dropped.E.trace with
    | rr :: _ -> rr.E.unanswered_questions > 0
    | [] -> false);
  check_bool "drop never reissues" true
    (List.for_all (fun rr -> rr.E.reissued_questions = 0) dropped.E.trace);
  check_bool "carry reissues" true
    (List.exists (fun rr -> rr.E.reissued_questions > 0) carried.E.trace)

let test_reissue_zero_equals_drop () =
  let go straggler =
    let rng = Rng.create 3 in
    let truth = G.random rng 60 in
    E.run rng
      (simulated_cfg ~deadline:(E.Fixed 200.0) ~straggler (tdp_alloc 60 400))
      truth
  in
  let a = go E.Drop and b = go (E.Reissue 0) in
  check_int "same chosen" a.E.chosen b.E.chosen;
  checkf 1e-12 "same latency" a.E.total_latency b.E.total_latency;
  check_int "same questions" a.E.questions_posted b.E.questions_posted

let test_reissue_cap_bounds_reposts () =
  (* Reissue 1: a pair can be reposted at most once, so the total
     reissued count never exceeds the total newly-stranded count, and
     every reissued pair traces back to an unanswered one *)
  let rng = Rng.create 3 in
  let truth = G.random rng 60 in
  let r =
    E.run rng
      (simulated_cfg ~deadline:(E.Fixed 200.0) ~straggler:(E.Reissue 1)
         (tdp_alloc 60 400))
      truth
  in
  let reissued =
    List.fold_left (fun acc rr -> acc + rr.E.reissued_questions) 0 r.E.trace
  in
  let stranded =
    List.fold_left (fun acc rr -> acc + rr.E.unanswered_questions) 0 r.E.trace
  in
  check_bool "cap respected" true (reissued <= stranded)

let test_dead_carried_pair_is_pruned () =
  (* Regression for the carry-forward bookkeeping: a stranded pair whose
     element is later eliminated must not occupy a slot of a later
     round's budget (the selector's question has to go out instead of a
     repost that can no longer carry information).

     Script (elements ranked 0 best .. 3 worst, perfect workers):
     - round 0 posts (3,2) and (3,1); the quantile deadline resolves to
       L(2) = 100 s, inside the 150 s posting overhead, so both strand.
     - round 1 (budget 1) reposts only (3,2); it completes (L(1) is
       huge) and eliminates 3 — making the still-queued (3,1) dead.
     - round 2 (budget 1) must skip the dead (3,1), reissue nothing,
       and post the selector's (2,0). *)
  let truth = G.of_ranks [| 3; 2; 1; 0 |] in
  let scripted =
    S.make "scripted" (fun _ input out ->
        match input.S.round_index with
        | 0 ->
            Pairs.push out 3 2;
            Pairs.push out 3 1
        | 2 -> Pairs.push out 2 0
        | _ -> ())
  in
  let slow_singles = Model.Custom (fun q -> if q >= 2 then 100.0 else 1e7) in
  let cfg =
    E.config
      ~source:
        (E.Simulated
           { platform = Platform.create (); rwl = { Rwl.votes = 1; error = W.Perfect } })
      ~pad_to_round_budget:false ~deadline:(E.Quantile 1.0)
      ~straggler:E.Carry_forward
      ~allocation:(Allocation.of_round_budgets [ 2; 1; 1 ])
      ~selection:scripted ~latency_model:slow_singles ()
  in
  let rng = Rng.create 29 in
  let r = E.run rng cfg truth in
  match r.E.trace with
  | [ r0; r1; r2 ] ->
      check_int "r0 posts both" 2 r0.E.distinct_questions;
      check_int "r0 strands both" 2 r0.E.unanswered_questions;
      check_bool "r0 deadline hit" true r0.E.deadline_hit;
      check_int "r0 eliminates nobody" 4 r0.E.candidates_after;
      check_int "r1 reissues one" 1 r1.E.reissued_questions;
      check_int "r1's only question is the repost" 1 r1.E.distinct_questions;
      check_int "r1 eliminates element 3" 3 r1.E.candidates_after;
      check_int "r2 reissues nothing (dead pair pruned)" 0
        r2.E.reissued_questions;
      check_int "r2 posts the selector's question" 1 r2.E.distinct_questions;
      check_int "r2 eliminates element 2" 2 r2.E.candidates_after
  | t -> Alcotest.fail (Printf.sprintf "expected 3 rounds, got %d" (List.length t))

let test_carried_repick_dropped () =
  (* A selector that re-picks a carried straggler (here in the other
     orientation) must not post it twice: the round holds the carried
     copy, first, and the selector's duplicate is dropped.

     Script (elements ranked 0 best .. 3 worst, perfect workers): round
     0 posts (3,2) and (3,1); the quantile deadline L(2) = 100 s falls
     inside the 150 s posting overhead, so both strand. Round 1 (budget
     3) reposts both and gives the selector one slot, which it spends
     on (2,3) and (0,1): (2,3) is the carried (3,2) again. *)
  let truth = G.of_ranks [| 3; 2; 1; 0 |] in
  let seen = ref [] in
  let scripted =
    S.make "scripted" (fun _ input out ->
        match input.S.round_index with
        | 0 ->
            Pairs.push out 3 2;
            Pairs.push out 3 1
        | _ ->
            seen := input.S.carried;
            Pairs.push out 2 3;
            Pairs.push out 0 1)
  in
  let cfg =
    E.config
      ~source:
        (E.Simulated
           { platform = Platform.create (); rwl = { Rwl.votes = 1; error = W.Perfect } })
      ~pad_to_round_budget:false ~deadline:(E.Quantile 1.0)
      ~straggler:E.Carry_forward
      ~allocation:(Allocation.of_round_budgets [ 2; 3 ])
      ~selection:scripted
      ~latency_model:(Model.Custom (fun q -> if q >= 2 then 100.0 else 1e7))
      ()
  in
  let r = E.run (Rng.create 29) cfg truth in
  Alcotest.(check (list (pair int int)))
    "the selector saw both carried pairs" [ (3, 2); (3, 1) ] !seen;
  match r.E.trace with
  | [ r0; r1 ] ->
      check_int "r0 strands both" 2 r0.E.unanswered_questions;
      check_int "r1 reissues both" 2 r1.E.reissued_questions;
      check_int "r1 posts the two carried pairs and (0,1)" 3
        r1.E.distinct_questions
  | t -> Alcotest.fail (Printf.sprintf "expected 2 rounds, got %d" (List.length t))

let test_run_metrics_instrumentation () =
  (* The engine-section counters must agree with the result/trace the
     same run reports, and enabling them must not change the run. *)
  let module M = Crowdmax_obs.Metrics in
  let cfg =
    simulated_cfg ~deadline:(E.Fixed 200.0) ~straggler:E.Carry_forward
      (tdp_alloc 30 150)
  in
  let go metrics =
    let rng = Rng.create 31 in
    let truth = G.random rng 30 in
    E.run ?metrics rng cfg truth
  in
  let plain = go None in
  let metrics = M.create () in
  let r = go (Some metrics) in
  checkf 1e-12 "metrics don't perturb the run" plain.E.total_latency
    r.E.total_latency;
  check_int "same chosen" plain.E.chosen r.E.chosen;
  let snap = M.snapshot metrics in
  let count name =
    match M.find snap ~section:"engine" name with
    | Some (M.Count n) -> n
    | _ -> Alcotest.fail (Printf.sprintf "missing engine counter %s" name)
  in
  check_int "runs" 1 (count "runs");
  check_int "rounds counted" r.E.rounds_run (count "rounds_run");
  check_int "posted counted" r.E.questions_posted (count "questions_posted");
  let sum f = List.fold_left (fun acc rr -> acc + f rr) 0 r.E.trace in
  check_int "unanswered counted"
    (sum (fun rr -> rr.E.unanswered_questions))
    (count "questions_unanswered");
  check_int "reissued counted"
    (sum (fun rr -> rr.E.reissued_questions))
    (count "questions_reissued");
  check_int "deadline hits counted"
    (List.length (List.filter (fun rr -> rr.E.deadline_hit) r.E.trace))
    (count "deadline_hits");
  (match M.find snap ~section:"engine" "round_latency_seconds" with
  | Some (M.Histogram { total; _ }) ->
      check_int "one histogram entry per round" r.E.rounds_run total
  | _ -> Alcotest.fail "round latency histogram missing");
  check_bool "platform section populated" true
    (match M.find snap ~section:"platform" "batches" with
    | Some (M.Count n) -> n > 0
    | _ -> false)

let test_deadline_replicate_deterministic_across_jobs () =
  (* the tentpole determinism contract extends to finite deadlines and
     straggler queues: aggregates bit-identical for any jobs count *)
  List.iter
    (fun (deadline, straggler) ->
      let cfg = simulated_cfg ~deadline ~straggler (tdp_alloc 25 140) in
      let agg jobs = E.replicate ~jobs ~runs:12 ~seed:71 cfg ~elements:25 in
      check_bool "jobs=1 = jobs=4" true (E.equal_stats (agg 1) (agg 4)))
    [
      (E.Fixed 220.0, E.Carry_forward);
      (E.Quantile 0.9, E.Drop);
      (E.Fixed 200.0, E.Reissue 2);
    ]

let test_plan_config_matches_manual () =
  (* [E.plan_config] is solve-then-config in one step; with a shared
     plan cache it must still build exactly the config the manual
     two-step path does. *)
  let problem = Problem.create ~elements:30 ~budget:180 ~latency:model in
  let cache = Crowdmax_core.Tdp.Cache.create () in
  let planned =
    E.plan_config ~cache ~problem ~selection:S.tournament ()
  in
  let manual = oracle_cfg (tdp_alloc 30 180) in
  Alcotest.check
    Alcotest.(list int)
    "same allocation"
    (Allocation.round_budgets manual.E.allocation)
    (Allocation.round_budgets planned.E.allocation);
  let truth = G.random (Rng.create 91) 30 in
  let a = E.run (Rng.create 92) planned truth in
  let b = E.run (Rng.create 92) manual truth in
  check_bool "identical runs" true
    (Float.equal a.E.total_latency b.E.total_latency
    && a.E.chosen = b.E.chosen
    && a.E.questions_posted = b.E.questions_posted)

(* --- the pinned deadline unit convention -------------------------------- *)

(* [round_deadline] is THE place Quantile patience is priced, and its
   argument is distinct posted questions — the same unit every other
   L(q) consumer uses. The quantile resolves to the k-th distinct
   answer, never to votes * posted raw marketplace questions. *)
let test_round_deadline_convention () =
  let quote deadline posted =
    E.round_deadline ~deadline ~latency_model:model ~posted
  in
  check_bool "Wait_all never cuts" true (quote E.Wait_all 10 = None);
  check_bool "Fixed is verbatim" true (quote (E.Fixed 42.0) 10 = Some 42.0);
  (* model is L(q) = 100 + q: the quote exposes k directly *)
  check_bool "Quantile 1.0 waits for all posted" true
    (quote (E.Quantile 1.0) 10 = Some 110.0);
  check_bool "Quantile 0.25 of 10 is the 3rd answer" true
    (quote (E.Quantile 0.25) 10 = Some 103.0);
  check_bool "k floors at one answer" true
    (quote (E.Quantile 0.1) 1 = Some 101.0)

(* Regression for the votes > 1 unit bug: with 3 votes per question the
   quantile quote must still be L(distinct), not L(3 * distinct) — a
   raw-batch quote would grant every round nearly triple the patience
   the requester's model promises. Every clipped round's recorded cost
   is exactly the distinct-question quote. *)
let test_quantile_quote_ignores_votes () =
  let votes = 3 in
  let cfg =
    simulated_cfg ~votes ~deadline:(E.Quantile 1.0) ~straggler:E.Drop
      (tdp_alloc 30 150)
  in
  let rng = Rng.create 83 in
  let truth = G.random rng 30 in
  let r = E.run rng cfg truth in
  let hits = List.filter (fun rr -> rr.E.deadline_hit) r.E.trace in
  check_bool "some round hit the quantile cutoff" true (List.length hits >= 1);
  List.iter
    (fun rr ->
      let quote = Model.eval model rr.E.distinct_questions in
      let raw_quote = Model.eval model (votes * rr.E.distinct_questions) in
      check_bool "clipped at the distinct-question quote" true
        (Float.equal rr.E.round_latency quote);
      check_bool "a raw-batch quote would have waited longer" true
        (quote < raw_quote))
    hits

(* --- the DAG pool behind Query.create / Query.finish -------------------- *)

let test_query_spent_after_finish () =
  let rng = Rng.create 9 in
  let q = E.Query.create ~selection:S.tournament ~budget:20 (G.random rng 6) in
  let round = E.Query.select q rng ~budget:3 ~horizon:3 in
  ignore (E.Query.finish q : E.result);
  let spent step f =
    Alcotest.check_raises step
      (Invalid_argument ("Engine.Query." ^ step ^ ": query finished"))
      (fun () -> ignore (f ()))
  in
  let outcome =
    {
      E.round_seconds = 1.0;
      observed_seconds = 1.0;
      answered = 0;
      unanswered = [];
      round_deadline_hit = false;
    }
  in
  spent "dag" (fun () -> E.Query.dag q);
  spent "active" (fun () -> E.Query.active q);
  spent "replan" (fun () ->
      E.Query.replan ~cache:(Tdp.Cache.create ()) q model);
  spent "select" (fun () -> E.Query.select q rng ~budget:3 ~horizon:3);
  spent "absorb" (fun () -> E.Query.absorb q round outcome);
  spent "finish" (fun () -> E.Query.finish q)

let test_pool_retention_capped () =
  (* Fleets of 16 concurrent queries hold 16 DAGs at once; the pool
     keeps at most [pool_cap] of them, however many fleets run. *)
  let rng = Rng.create 4 in
  let specs = Array.init 16 (fun _ -> Server.query_spec ~elements:5 ~budget:8 ()) in
  let platform = Platform.create () in
  for _ = 1 to 1_000 do
    let truths = Array.map (fun _ -> G.random rng 5) specs in
    ignore
      (Server.run ~platform ~latency:model ~selection:S.tournament rng specs
         truths);
    if E.Query.pooled () > E.Query.pool_cap then
      Alcotest.failf "pool holds %d DAGs, cap %d" (E.Query.pooled ())
        E.Query.pool_cap
  done;
  check_int "a 16-query fleet fills the pool to its cap" E.Query.pool_cap
    (E.Query.pooled ())

let suite =
  [
    ( "engine",
      [
        tc "round_deadline distinct-question convention" `Quick
          test_round_deadline_convention;
        tc "quantile quote ignores votes" `Quick
          test_quantile_quote_ignores_votes;
        tc "plan_config matches manual solve+config" `Quick
          test_plan_config_matches_manual;
        tc "policy validation" `Quick test_policy_validation;
        tc "zero-question rounds keep trace dense" `Quick
          test_zero_question_rounds_keep_trace_dense;
        tc "Wait_all ignores straggler policy" `Quick
          test_wait_all_ignores_straggler_policy;
        tc "deadline cuts round latency" `Quick test_deadline_cuts_round_latency;
        tc "carry-forward reissues stranded questions" `Quick
          test_carry_forward_reissues;
        tc "Reissue 0 = Drop" `Quick test_reissue_zero_equals_drop;
        tc "reissue cap bounds reposts" `Quick test_reissue_cap_bounds_reposts;
        tc "dead carried pair is pruned" `Quick test_dead_carried_pair_is_pruned;
        tc "carried re-pick dropped" `Quick test_carried_repick_dropped;
        tc "run metrics instrumentation" `Quick test_run_metrics_instrumentation;
        tc "deadline replicate deterministic across jobs" `Quick
          test_deadline_replicate_deterministic_across_jobs;
        tc "finds the true max" `Quick test_finds_true_max;
        tc "latency matches tDP objective" `Quick test_latency_matches_tdp_prediction;
        tc "trace consistent" `Quick test_trace_is_consistent;
        tc "early stop on singleton" `Quick test_early_stop_on_singleton;
        tc "padding charges full budget" `Quick test_padding_charges_full_budget;
        tc "padding disabled" `Quick test_padding_disabled;
        tc "insufficient allocation" `Quick test_insufficient_allocation_no_singleton;
        tc "single element" `Quick test_single_element_collection;
        tc "heuristics terminate" `Quick test_heuristic_allocations_terminate;
        tc "simulated source with RWL" `Quick test_simulated_source_with_rwl;
        tc "replicate aggregates" `Quick test_replicate_aggregates;
        tc "replicate rejects zero runs" `Quick test_replicate_rejects_zero_runs;
        tc "deterministic given seed" `Quick test_deterministic_given_seed;
        tc "finished query is spent" `Quick test_query_spent_after_finish;
        tc "DAG pool retention capped" `Quick test_pool_retention_capped;
        tc "source vote validation" `Quick test_source_vote_validation;
      ] );
  ]
