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
  check_alloc_free "Event_calendar.add/remove_min" (fun () ->
      Cal.add cal ~time:2.5 7 9;
      Cal.add cal ~time:1.5 3 4;
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
  let h = Metrics.histogram m ~section:"alloc" "h" ~buckets:[| 1.0; 10.0 |] in
  check_alloc_free "Metrics.incr/add/record_peak/observe" (fun () ->
      Metrics.incr c;
      Metrics.add c 3;
      Metrics.record_peak p 5;
      Metrics.observe h 2.5)

let test_int_kernels () =
  check_alloc_free "Tournament.questions + Ints.choose2/ceil_div" (fun () ->
      ignore (Tournament.questions 64 8 : int);
      ignore (Ints.choose2 100 : int);
      ignore (Ints.ceil_div 17 4 : int))

(* The composite paths: not exactly zero (setup builds latency tables,
   the report record, one boxed return), but the budget must not scale
   with the work done inside the [@@alloc_free] loops. *)

let test_tdp_solve_bounded () =
  (* Same c0, wildly different DP work: tens of thousands of settled
     states at the tight budget vs a handful at the loose one. The model
     is a power L, outside the linear round-count bound, so the tight
     solve still walks the whole DP. The per-solve setup (latency
     tables, ub table, arena — rebuilt each uncached solve, boxed
     latency evals and all) is identical between the two, so the
     difference isolates what the [@@alloc_free] run_stack loop itself
     allocates: one 2-word float box per state would show as ~10^5
     words. *)
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
       b=4000 (%d states) — the run_stack loop is leaking per-state \
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
     floor of ~12 minor words per question that release builds
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
      ] );
  ]
