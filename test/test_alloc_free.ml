(* Runtime cross-check of the [@@alloc_free] annotations.

   The static R6 rule (tools/lint/alloc_free.ml) proves the annotated
   bodies contain no allocating *construct*; what the typedtree walk
   cannot see is boxing the code generator introduces — a float return
   crossing an -opaque module boundary, an int64 spilled to the heap.
   This harness closes that gap with [Gc.minor_words]: the steady-state
   kernels must allocate exactly nothing per call, and the two composite
   hot paths (the tDP solver, the platform event loop) must stay within
   a small per-call budget that is independent of their iteration count
   (states settled / events drained), so any per-state or per-event box
   shows up as a 1000x blowout, not a 5% drift.

   Methodology: warm the closure twice (fills lazy init and promotes
   the closure itself), read the minor-words counter, run the loop,
   read again. [slack] absorbs the boxed float that the first counter
   read itself allocates. The dev profile compiles with -opaque, which
   blocks cross-module inlining — these bounds hold even so, because
   every measured kernel either returns immediates or keeps its floats
   in arrays/fields rather than returning them. *)

module Cal = Crowdmax_util.Event_calendar
module Pair_set = Crowdmax_util.Pair_set
module Rng = Crowdmax_util.Rng
module Ints = Crowdmax_util.Ints
module Dag = Crowdmax_graph.Answer_dag
module Metrics = Crowdmax_obs.Metrics
module Tournament = Crowdmax_tournament.Tournament
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Model = Crowdmax_latency.Model
module Platform = Crowdmax_crowd.Platform
module Ground_truth = Crowdmax_crowd.Ground_truth
module Selection = Crowdmax_selection.Selection
module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive

let iters = 10_000

(* The counter read before the loop allocates one boxed float itself;
   anything beyond that small constant is a real per-call allocation
   (even 2 words/call over 10k iterations is 20_000 words). *)
let slack = 64.0

let words_for ~n f =
  f ();
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  Gc.minor_words () -. before

let check_alloc_free name f =
  let words = words_for ~n:iters f in
  if words > slack then
    Alcotest.failf "%s: %.0f minor words over %d iterations (want 0)" name
      words iters

let test_event_calendar () =
  (* capacity pre-sized: the [@alloc_cold] grow path must not fire
     mid-measurement (length never exceeds 2 here anyway) *)
  let cal = Cal.create ~capacity:64 () in
  check_alloc_free "Event_calendar.add/replace_min/remove_min" (fun () ->
      Cal.add cal ~time:2.5 7 9;
      Cal.add cal ~time:1.5 3 4;
      Cal.replace_min cal ~time:3.5 5 6;
      Cal.remove_min cal;
      Cal.remove_min cal)

let test_pair_set () =
  let ps = Pair_set.create ~expected:64 100 in
  ignore (Pair_set.add ps 3 9 : bool);
  check_alloc_free "Pair_set.mem/duplicate add" (fun () ->
      ignore (Pair_set.mem ps 3 9 : bool);
      ignore (Pair_set.mem ps 4 5 : bool);
      ignore (Pair_set.add ps 3 9 : bool))

let test_rng () =
  let rng = Rng.create 42 in
  check_alloc_free "Rng.int/bool" (fun () ->
      ignore (Rng.int rng 100 : int);
      ignore (Rng.bool rng : bool))

let test_answer_dag () =
  (* edge pool pre-sized past warmup + the measured loop so the
     [@alloc_cold] grow_pool path stays cold *)
  let dag = Dag.create ~edge_capacity:(2 * iters) 8 in
  check_alloc_free "Answer_dag.add_answer_unchecked/is_singleton" (fun () ->
      Dag.add_answer_unchecked dag ~winner:0 ~loser:1;
      ignore (Dag.is_singleton dag : bool);
      ignore (Dag.losses dag 1 : int))

let test_metrics () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~section:"alloc" "count" in
  let p = Metrics.peak m ~section:"alloc" "peak" in
  let h =
    Metrics.histogram m ~section:"alloc" "h"
      ~buckets:(Metrics.bucket_spec [| 1.0; 10.0 |])
  in
  check_alloc_free "Metrics.incr/add/record_peak/observe" (fun () ->
      Metrics.incr c;
      Metrics.add c 3;
      Metrics.record_peak p 5;
      Metrics.observe h 2.5)

let test_int_kernels () =
  check_alloc_free "Tournament.questions + Ints.choose2/ceil_div/log2_ceil"
    (fun () ->
      ignore (Tournament.questions 64 8 : int);
      ignore (Ints.choose2 100 : int);
      ignore (Ints.ceil_div 17 4 : int);
      ignore (Ints.log2_ceil 1000 : int))

(* The composite paths: not exactly zero (setup builds latency tables,
   the report record, one boxed return), but the budget must not scale
   with the work done inside the [@@alloc_free] loops. *)

let test_tdp_solve_bounded () =
  (* Same c0, wildly different DP work: tens of thousands of settled
     states at the tight budget vs a handful at the loose one. The model
     is a power L, outside the linear round-count bound, so the tight
     solve still walks the whole DP. The per-solve setup (the L memo
     and ub table, filled on first read with boxed latency evals, and
     the arena — rebuilt each uncached solve) is nearly the same between
     the two: both solves force almost every ub entry, which reads
     almost every batch size. So the difference isolates what the
     [@@alloc_free] run_dp loop itself allocates: one 2-word float box
     per state would show as ~10^5 words. *)
  let solve_words model c0 b =
    let p = Problem.create ~elements:c0 ~budget:b ~latency:model in
    let sol = Tdp.solve p in
    (sol.Tdp.states_visited, words_for ~n:1 (fun () -> ignore (Tdp.solve p)))
  in
  let power = Model.power ~delta:239.0 ~alpha:0.002 ~p:1.5 in
  let tight_states, tight_words = solve_words power 500 999 in
  let loose_states, loose_words = solve_words power 500 4000 in
  Alcotest.(check int) "tight solve settles the pinned state count" 36096
    tight_states;
  Alcotest.(check int) "loose solve settles the pinned state count" 45
    loose_states;
  let delta = tight_words -. loose_words in
  if delta > 2_048.0 then
    Alcotest.failf
      "Tdp.solve c0=500: %.0f minor words more at b=999 (%d states) than at \
       b=4000 (%d states) — the run_dp loop is leaking per-state \
       allocations"
      delta tight_states loose_states;
  (* Under the paper's linear L the round-count bound settles the same
     tight instance in a handful of states. Its own hot path — a
     [rounds_needed] lookup per surviving candidate — gets the same
     contrast on a lean c0=1000 pair: 127 settled states, each scanning
     up to 999 candidates, against 2. *)
  let linear = Model.paper_mturk in
  let linear_states, _ = solve_words linear 500 999 in
  Alcotest.(check int) "linear tight solve settles the pinned state count"
    4 linear_states;
  let lean_states, lean_words = solve_words linear 1000 2000 in
  let roomy_states, roomy_words = solve_words linear 1000 8000 in
  Alcotest.(check int) "linear lean solve settles the pinned state count" 127
    lean_states;
  let delta = lean_words -. roomy_words in
  if delta > 2_048.0 then
    Alcotest.failf
      "Tdp.solve c0=1000: %.0f minor words more at b=2000 (%d states) than \
       at b=8000 (%d states) — the round-bound scan is allocating"
      delta lean_states roomy_states

let test_platform_simulate_bounded () =
  let p = Platform.create () in
  let scratch = Platform.scratch () in
  let rng = Rng.create 7 in
  let batch_words q =
    words_for ~n:1 (fun () ->
        ignore (Platform.batch_latency ~scratch p rng q : float))
  in
  (* The dev profile compiles with -opaque, so the event loop's
     cross-module float traffic — Rng.exponential/lognormal returns,
     the calendar's [~time] argument — is boxed at every call: a
     floor of ~10 minor words per question that release builds
     mostly inline away. That boxing is the documented dynamic
     soundness boundary of R6 (DESIGN.md §6g); the pinned per-question
     coefficient keeps it visible and still catches any structural
     per-event allocation (a tuple, closure or list cell per event
     roughly doubles it). *)
  let w400 = batch_words 400 in
  let w800 = batch_words 800 in
  let per_q = (w800 -. w400) /. 400.0 in
  if per_q > 16.0 then
    Alcotest.failf
      "Platform.batch_latency: %.1f minor words per question (dev-profile \
       float-boxing floor is ~12; the event loop gained a structural \
       per-event allocation)"
      per_q

let test_platform_shared_bounded () =
  (* The fleet case of the same loop, contested picks, deadline
     withdrawals and in-loop vote tallies included (three repetitions
     per posted slot, as the server posts them), with no observer: a
     counted answer is one increment of its query's tally, with no
     callback to box its completion time for. Under the same
     dev-profile boxing floor that reads ~9.5 words per question; the
     bound drops the 2 words per answer the per-answer callback's boxed
     time was allowed. The loop's own per-event state lives in the
     scratch, so doubling every batch adds no structural allocation. *)
  let p = Platform.create () in
  let scratch = Platform.scratch () in
  let rng = Rng.create 7 in
  let sizes = [| 30; 60; 90; 120; 45; 75; 150; 30 |] in
  let deadlines = [| 400.; infinity; 300.; 600.; infinity; 250.; 1000.; 200. |] in
  let fleet_words k =
    let qs = Array.map (fun q -> k * q) sizes in
    let tallies = Array.map (fun q -> Array.make (q / 3) 0) qs in
    words_for ~n:1 (fun () ->
        ignore
          (Platform.simulate_shared ~deadlines ~scratch ~tallies p rng
             ~pick:Platform.Proportional qs
            : Platform.report array))
  in
  let per_q = (fleet_words 2 -. fleet_words 1) /. 600.0 in
  if per_q > 10.0 then
    Alcotest.failf
      "Platform.simulate_shared: %.1f minor words per question (dev-profile \
       floor is ~9.5; the event loop gained a per-event allocation)"
      per_q

(* Words [f] allocates straight into the major heap. The leading minor
   collection empties the minor heap, so no promotion lands inside. *)
let major_words f =
  Gc.minor ();
  let _, _, before = Gc.counters () in
  let r = f () in
  let _, _, after = Gc.counters () in
  (r, after -. before)

let test_query_recycles_dag () =
  (* A finished query's DAG serves the next query on the same domain:
     its n × ⌈n/32⌉ loss bitset (past the minor heap's size limit, so a
     fresh one is a major allocation) is reset, not reallocated. *)
  let rng = Rng.create 5 in
  let problem =
    Problem.create ~elements:300 ~budget:900 ~latency:Model.paper_mturk
  in
  ignore
    (Adaptive.run rng ~problem ~selection:Selection.tournament
       (Ground_truth.random rng 300));
  let truth = Ground_truth.random rng 250 in
  let q, recycled =
    major_words (fun () ->
        Engine.Query.create ~selection:Selection.tournament ~budget:900 truth)
  in
  ignore (Engine.Query.finish q : Engine.result);
  let _, fresh = major_words (fun () -> Dag.create 250) in
  if fresh <= 0.0 then
    Alcotest.failf "a fresh Dag.create 250 read %.0f major words" fresh;
  if recycled > 0.0 then
    Alcotest.failf
      "Query.create after a finished run allocated %.0f major words (a \
       fresh DAG: %.0f)"
      recycled fresh

let test_cold_solve_major_words () =
  (* A cold plan cache allocates its model's [ub]/[ub_next] rows (c0 + 1
     words each, past the minor heap's size limit) and nothing else on
     the major heap: the choose2 memo, the work stacks and the
     round-count rows live in the domain's planner workspace, sized by
     the warm-up solve below. *)
  let c0 = 1000 in
  List.iter
    (fun budget ->
      let p = Problem.create ~elements:c0 ~budget ~latency:Model.paper_mturk in
      ignore (Tdp.solve ~cache:(Tdp.Cache.create ()) p);
      let cache = Tdp.Cache.create () in
      let _, words = major_words (fun () -> Tdp.solve ~cache p) in
      let limit = float_of_int ((2 * (c0 + 1)) + 128) in
      if words > limit then
        Alcotest.failf
          "cold Tdp.solve c0=%d b=%d: %.0f major words (limit %.0f: the \
           two ub rows plus a constant)"
          c0 budget words limit)
    [ 2000; 8000 ]

let test_adaptive_oracle_round_words () =
  (* The round machine's steady state: on a domain whose pools are warm
     (a recycled DAG and pair buffer, the selector and RWL scratch, the
     planner workspace) and with a warm plan cache, an oracle
     [Adaptive.run] allocates a constant per round — the plan, the
     round's records, the candidate array of C_j — however many pairs
     a round asks: ~270 words at both sizes in the dev profile. One
     word per pair would add ~950 per round at c0 = 1000, whose plan
     asks 1,500, 884 and 465 pairs. *)
  let words_per_round c0 =
    let problem =
      Problem.create ~elements:c0 ~budget:(4 * c0) ~latency:Model.paper_mturk
    in
    let cache = Tdp.Cache.create () in
    let truths = Array.init 4 (fun i -> Ground_truth.random (Rng.create i) c0) in
    let run i =
      Adaptive.run ~cache (Rng.create (100 + i)) ~problem
        ~selection:Selection.tournament truths.(i)
    in
    ignore (run 0);
    ignore (run 1);
    let rounds = ref 0 in
    let before = Gc.minor_words () in
    for i = 0 to 3 do
      let r = run i in
      rounds := !rounds + r.Adaptive.engine_result.Engine.rounds_run
    done;
    let words = Gc.minor_words () -. before in
    (words /. float_of_int !rounds, !rounds)
  in
  List.iter
    (fun c0 ->
      let per_round, rounds = words_per_round c0 in
      if per_round > 600.0 then
        Alcotest.failf
          "oracle Adaptive.run c0=%d: %.0f minor words per round over %d \
           rounds (limit 600: the round's records and its C_j array, not \
           a word per pair)"
          c0 per_round rounds)
    [ 200; 1000 ]

let suite =
  [
    ( "alloc_free",
      [
        Alcotest.test_case "event_calendar add/remove_min" `Quick
          test_event_calendar;
        Alcotest.test_case "pair_set mem/add" `Quick test_pair_set;
        Alcotest.test_case "rng int/bool" `Quick test_rng;
        Alcotest.test_case "answer_dag add/is_singleton" `Quick
          test_answer_dag;
        Alcotest.test_case "metrics incr/add/peak/observe" `Quick test_metrics;
        Alcotest.test_case "tournament/ints kernels" `Quick test_int_kernels;
        Alcotest.test_case "tdp solve bounded" `Quick test_tdp_solve_bounded;
        Alcotest.test_case "platform simulate bounded" `Quick
          test_platform_simulate_bounded;
        Alcotest.test_case "platform simulate_shared bounded" `Quick
          test_platform_shared_bounded;
        Alcotest.test_case "query recycles its DAG" `Quick
          test_query_recycles_dag;
        Alcotest.test_case "cold tdp solve major words" `Quick
          test_cold_solve_major_words;
        Alcotest.test_case "adaptive oracle round words" `Quick
          test_adaptive_oracle_round_words;
      ] );
  ]
