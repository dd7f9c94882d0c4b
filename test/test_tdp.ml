module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Allocation = Crowdmax_core.Allocation
module Model = Crowdmax_latency.Model
module Ints = Crowdmax_util.Ints
module Rng = Crowdmax_util.Rng

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-6)

let linear d a = Model.linear ~delta:d ~alpha:a

let solve ?(model = linear 100.0 1.0) elements budget =
  Tdp.solve (Problem.create ~elements ~budget ~latency:model)

let test_single_element () =
  let s = solve 1 0 in
  Alcotest.check Alcotest.(list int) "sequence [1]" [ 1 ] s.Tdp.sequence;
  checkf "zero latency" 0.0 s.Tdp.latency;
  check_int "zero questions" 0 s.Tdp.questions_used

let test_two_elements () =
  let s = solve 2 1 in
  Alcotest.check Alcotest.(list int) "one comparison" [ 2; 1 ] s.Tdp.sequence;
  checkf "L(1)" 101.0 s.Tdp.latency

let test_paper_intro_example () =
  (* Sec. 2.2: c0 = 40, b = 108, L = 100 + q: (40,8,1) costs 308, so the
     optimum is at most 308 and beats the 360 of (40,20,5,1). *)
  let s = solve 40 108 in
  check_bool "budget respected" true (s.Tdp.questions_used <= 108);
  check_bool "beats (40,20,5,1)" true (s.Tdp.latency < 360.0);
  check_bool "at least as good as (40,8,1)" true (s.Tdp.latency <= 308.0)

let test_sequence_well_formed () =
  let rng = Rng.create 3 in
  for _ = 1 to 50 do
    let c0 = 2 + Rng.int rng 60 in
    let b = c0 - 1 + Rng.int rng 200 in
    let s = solve c0 b in
    (match s.Tdp.sequence with
    | first :: _ -> check_int "starts at c0" c0 first
    | [] -> Alcotest.fail "empty sequence");
    check_int "ends at 1" 1 (List.nth s.Tdp.sequence (List.length s.Tdp.sequence - 1));
    check_bool "strictly decreasing" true
      (let rec dec = function
         | a :: (b :: _ as r) -> a > b && dec r
         | _ -> true
       in
       dec s.Tdp.sequence);
    check_bool "within budget" true (s.Tdp.questions_used <= b);
    checkf "latency consistent with allocation"
      (Allocation.predicted_latency s.Tdp.allocation (linear 100.0 1.0))
      s.Tdp.latency
  done

let test_matches_brute_force () =
  let rng = Rng.create 7 in
  for _ = 1 to 40 do
    let c0 = 2 + Rng.int rng 9 in
    let b = c0 - 1 + Rng.int rng 40 in
    let delta = float_of_int (10 + Rng.int rng 200) in
    let alpha = 0.1 +. Rng.float rng 3.0 in
    let model = linear delta alpha in
    let p = Problem.create ~elements:c0 ~budget:b ~latency:model in
    let bf = Tdp_reference.brute_force p and dp = Tdp.solve p in
    Alcotest.check (Alcotest.float 1e-9) "optimal latency" bf.Tdp.latency dp.Tdp.latency
  done

let test_matches_brute_force_power () =
  let rng = Rng.create 11 in
  for _ = 1 to 20 do
    let c0 = 2 + Rng.int rng 8 in
    let b = c0 - 1 + Rng.int rng 30 in
    let model = Model.power ~delta:50.0 ~alpha:1.0 ~p:(1.0 +. Rng.float rng 1.5) in
    let p = Problem.create ~elements:c0 ~budget:b ~latency:model in
    let bf = Tdp_reference.brute_force p and dp = Tdp.solve p in
    Alcotest.check (Alcotest.float 1e-9) "optimal under power L" bf.Tdp.latency dp.Tdp.latency
  done

let test_bottom_up_agrees () =
  let rng = Rng.create 13 in
  for _ = 1 to 20 do
    let c0 = 2 + Rng.int rng 25 in
    let b = c0 - 1 + Rng.int rng 120 in
    let p = Problem.create ~elements:c0 ~budget:b ~latency:(linear 60.0 0.8) in
    let bu = Tdp_reference.solve_bottom_up p and td = Tdp.solve p in
    Alcotest.check (Alcotest.float 1e-9) "same optimum" bu.Tdp.latency td.Tdp.latency
  done

let test_monotone_in_budget () =
  (* more budget can never hurt the optimal latency *)
  let prev = ref infinity in
  List.iter
    (fun b ->
      let s = solve 30 b in
      check_bool "non-increasing" true (s.Tdp.latency <= !prev +. 1e-9);
      prev := s.Tdp.latency)
    [ 29; 40; 60; 100; 200; 435 ]

let test_min_budget_forces_chain () =
  (* b = c0 - 1 admits only question-minimal plans: every question
     eliminates exactly one element *)
  let s = solve 10 9 in
  check_int "uses exactly b" 9 s.Tdp.questions_used

let test_budget_limiting () =
  (* Sec. 6.5: with the MTurk estimate and c0 = 500, tDP settles on
     allocation (2250, 1225) = 3475 questions for every b >= 4000 *)
  let model = Model.paper_mturk in
  let s4000 = solve ~model 500 4000 in
  Alcotest.check Alcotest.(list int) "paper allocation" [ 2250; 1225 ]
    (Allocation.round_budgets s4000.Tdp.allocation);
  check_int "3475 used" 3475 s4000.Tdp.questions_used;
  List.iter
    (fun b ->
      let s = solve ~model 500 b in
      check_int "same plan at any larger budget" 3475 s.Tdp.questions_used)
    [ 8000; 16000; 32000; 124750 ]

let test_convex_latency_limits_harder () =
  (* Fig. 14(b): the steeper the latency exponent, the fewer questions
     tDP spends *)
  let used p =
    let model = Model.power ~delta:239.0 ~alpha:0.06 ~p in
    (solve ~model 500 4000).Tdp.questions_used
  in
  check_bool "p=1.4 uses less than p=1.0" true (used 1.4 < used 1.0);
  check_bool "p=1.8 uses less than p=1.4" true (used 1.8 < used 1.4)

let test_high_overhead_prefers_one_round () =
  (* enormous per-round overhead: the complete tournament in one round
     is optimal when the budget allows it *)
  let model = linear 1_000_000.0 0.001 in
  let s = solve ~model 12 (Ints.choose2 12) in
  Alcotest.check Alcotest.(list int) "single round" [ 12; 1 ] s.Tdp.sequence

let test_zero_overhead_prefers_many_rounds () =
  (* free rounds: the question-minimal chain is optimal and spends
     c0 - 1 questions *)
  let model = linear 0.0 1.0 in
  let s = solve ~model 12 66 in
  check_int "c0 - 1 questions" 11 s.Tdp.questions_used

let test_optimal_latency_helper () =
  let p = Problem.create ~elements:10 ~budget:20 ~latency:(linear 10.0 1.0) in
  checkf "same as solve" (Tdp.solve p).Tdp.latency (Tdp.optimal_latency p)

let test_brute_force_guard () =
  let p = Problem.create ~elements:15 ~budget:200 ~latency:(linear 1.0 1.0) in
  Alcotest.check_raises "too large"
    (Invalid_argument "Tdp_reference.brute_force: instance too large")
    (fun () -> ignore (Tdp_reference.brute_force p))

let test_states_visited_positive () =
  let s = solve 30 100 in
  check_bool "some states" true (s.Tdp.states_visited >= 0)

(* L is evaluated on its first read. At c0 = 5, b = 8 the first is L(4)
   (the root's first feasible candidate, Q(5, 2) = 4), so a model that is
   non-finite everywhere fails right there instead of yielding a
   poisoned plan. *)
let test_non_finite_latency_fails_loudly () =
  Alcotest.check_raises "NaN model"
    (Invalid_argument "Tdp.solve: L(4) = nan is not finite")
    (fun () -> ignore (solve ~model:(Model.Custom (fun _ -> Float.nan)) 5 8));
  Alcotest.check_raises "infinite model"
    (Invalid_argument "Tdp.solve: L(4) = inf is not finite")
    (fun () ->
      ignore (solve ~model:(Model.Custom (fun _ -> Float.infinity)) 5 8))

(* A failed build leaves the cache empty: the same model must fail
   again on the same cache, not reuse the previous model's tables. *)
let test_failed_build_is_not_reused () =
  let cache = Tdp.Cache.create () in
  let p c0 model = Problem.create ~elements:c0 ~budget:(4 * c0) ~latency:model in
  ignore (Tdp.solve ~cache (p 20 Model.paper_mturk));
  let overflowing = Model.linear ~delta:1.0 ~alpha:1e308 in
  for _ = 1 to 2 do
    Alcotest.check_raises "overflowing linear L"
      (Invalid_argument "Tdp.solve: L(190) = inf is not finite") (fun () ->
        ignore (Tdp.solve ~cache (p 20 overflowing)))
  done;
  check_int "empty after the failed build" 0 (Tdp.Cache.capacity cache);
  let good = p 20 Model.paper_mturk in
  check_bool "rebuilt for the next model" true
    ((Tdp.solve ~cache good).Tdp.sequence = (Tdp.solve good).Tdp.sequence)

let test_planner_metrics () =
  let module M = Crowdmax_obs.Metrics in
  let p = Problem.create ~elements:40 ~budget:108 ~latency:(linear 100.0 1.0) in
  let metrics = M.create () in
  let s = Tdp.solve ~metrics p in
  let plain = Tdp.solve p in
  check_bool "metrics don't change the plan" true
    (s.Tdp.sequence = plain.Tdp.sequence
    && Float.equal s.Tdp.latency plain.Tdp.latency);
  let snap = M.snapshot metrics in
  let count name =
    match M.find snap ~section:"planner" name with
    | Some (M.Count n) -> n
    | _ -> Alcotest.fail (Printf.sprintf "missing planner counter %s" name)
  in
  check_int "one plan" 1 (count "plans");
  check_int "states = memoized misses" s.Tdp.states_visited
    (count "memo_misses");
  check_int "states counter agrees" s.Tdp.states_visited
    (count "states_visited");
  check_bool "reconstruction replays hits" true (count "memo_hits" > 0);
  check_bool "plan span recorded" true
    (match M.find snap ~section:"planner" "plan_seconds" with
    | Some (M.Real_seconds t) -> t >= 0.0
    | _ -> false)

(* --- flat arena vs the boxed reference solver --------------------------- *)

(* Bit-identical, not approximately equal: the flat solver keeps the
   seed's scan order and float operations, so every decision field must
   match exactly. [states_visited] is checked by the callers: the
   round-count bound lets linear models settle fewer states than the
   hashtbl solver's memo, every other model exactly as many. *)
let check_solutions_identical label (a : Tdp.solution) (b : Tdp.solution) =
  Alcotest.check Alcotest.(list int) (label ^ ": sequence") a.Tdp.sequence
    b.Tdp.sequence;
  Alcotest.check Alcotest.(list int)
    (label ^ ": allocation")
    (Allocation.round_budgets a.Tdp.allocation)
    (Allocation.round_budgets b.Tdp.allocation);
  check_bool (label ^ ": latency bit-identical") true
    (Int64.equal (Int64.bits_of_float a.Tdp.latency)
       (Int64.bits_of_float b.Tdp.latency));
  check_int (label ^ ": questions_used") a.Tdp.questions_used
    b.Tdp.questions_used

let test_flat_matches_hashtbl () =
  let rng = Rng.create 17 in
  for _ = 1 to 60 do
    let c0 = 2 + Rng.int rng 39 in
    let b = c0 - 1 + Rng.int rng 1000 in
    let delta = float_of_int (5 + Rng.int rng 300) in
    let alpha = 0.05 +. Rng.float rng 2.0 in
    let p = Problem.create ~elements:c0 ~budget:b ~latency:(linear delta alpha) in
    let flat = Tdp.solve p and boxed = Tdp_reference.solve_hashtbl p in
    check_solutions_identical
      (Printf.sprintf "c0=%d b=%d" c0 b)
      boxed flat;
    check_bool "cold states <= hashtbl memo size" true
      (flat.Tdp.states_visited <= boxed.Tdp.states_visited)
  done

let test_flat_matches_hashtbl_unbounded () =
  (* Models outside the round-count bound (a decreasing linear L, a
     power L) take the unpruned scan: every state the hashtbl solver
     memoizes is settled, no more and no fewer. *)
  let rng = Rng.create 19 in
  for k = 1 to 40 do
    let c0 = 2 + Rng.int rng 39 in
    let b = c0 - 1 + Rng.int rng 1000 in
    let delta = float_of_int (300 + Rng.int rng 300) in
    let model =
      if k mod 2 = 0 then linear delta (-.Rng.float rng 0.3)
      else Model.power ~delta ~alpha:(0.05 +. Rng.float rng 2.0) ~p:1.5
    in
    let p = Problem.create ~elements:c0 ~budget:b ~latency:model in
    let flat = Tdp.solve p and boxed = Tdp_reference.solve_hashtbl p in
    let label = Format.asprintf "c0=%d b=%d %a" c0 b Model.pp model in
    check_solutions_identical label boxed flat;
    check_int (label ^ ": cold states = hashtbl memo size")
      boxed.Tdp.states_visited flat.Tdp.states_visited
  done

(* Qmin_r(c) straight from its definition: the fewest questions over
   every first step c -> c' followed by an (r-1)-round plan from c'. *)
let naive_qmin cmax rmax =
  let inf = max_int / 4 in
  let t = Array.make_matrix (rmax + 1) (cmax + 1) inf in
  t.(0).(1) <- 0;
  for r = 1 to rmax do
    t.(r).(1) <- 0;
    for c = 2 to cmax do
      for c' = 1 to c - 1 do
        let v = Crowdmax_tournament.Tournament.questions c c' + t.(r - 1).(c') in
        if v < t.(r).(c) then t.(r).(c) <- v
      done
    done
  done;
  t

let test_min_questions_table () =
  let cmax = 150 in
  let rmax = Ints.log2_ceil cmax + 1 in
  let naive = naive_qmin cmax rmax in
  for r = 1 to rmax do
    for c = 1 to cmax do
      let got = Tdp.min_questions ~rounds:r c in
      if got <> naive.(r).(c) then
        Alcotest.failf "Qmin_%d(%d) = %d, naive recomputation %d" r c got
          naive.(r).(c);
      if c > 1 && got < Tdp.min_questions ~rounds:r (c - 1) then
        Alcotest.failf "Qmin_%d decreases at c=%d" r c;
      if r > 1 && got > Tdp.min_questions ~rounds:(r - 1) c then
        Alcotest.failf "Qmin_.(%d) increases at r=%d" c r
    done
  done;
  for c = 1 to cmax do
    check_int
      (Printf.sprintf "Qmin_1(%d) = choose2" c)
      (Ints.choose2 c)
      (Tdp.min_questions ~rounds:1 c);
    check_int
      (Printf.sprintf "last row Qmin(%d) = c - 1" c)
      (c - 1)
      (Tdp.min_questions ~rounds:(max 1 (Ints.log2_ceil c)) c)
  done;
  Alcotest.check_raises "rounds = 0 rejected"
    (Invalid_argument "Tdp.min_questions: need c >= 1 and rounds >= 1")
    (fun () -> ignore (Tdp.min_questions ~rounds:0 5))

let test_cache_across_table_doubling () =
  (* A fresh domain starts with an empty Qmin table, so this sequence
     crosses its doublings (64 -> 128 -> 512) at fixed points: the
     shared cache is built on a small table, the domain's table then
     grows under an uncached solve, and the cache keeps answering from
     the table it was built with. Every answer must equal a fresh solve
     made elsewhere. *)
  let model = linear 150.0 0.5 in
  let steps =
    [
      (`Cached, 100, 250); (`Fresh, 300, 700); (`Cached, 80, 200);
      (`Cached, 100, 180); (`Cached, 300, 650); (`Cached, 60, 70);
    ]
  in
  let in_domain () =
    let cache = Tdp.Cache.create () in
    List.map
      (fun (how, c0, b) ->
        let p = Problem.create ~elements:c0 ~budget:b ~latency:model in
        match how with
        | `Cached -> Tdp.solve ~cache p
        | `Fresh -> Tdp.solve p)
      steps
  in
  let got = Domain.join (Domain.spawn in_domain) in
  List.iter2
    (fun (_, c0, b) sol ->
      let p = Problem.create ~elements:c0 ~budget:b ~latency:model in
      check_solutions_identical
        (Printf.sprintf "c0=%d b=%d across doublings" c0 b)
        (Tdp.solve p) sol)
    steps got

let test_cached_sweep_bit_identical () =
  (* A shuffled budget sweep against one shared cache must reproduce the
     fresh solve at every point, regardless of what earlier solves left
     in the arena. *)
  let model = Model.paper_mturk in
  let rng = Rng.create 23 in
  let budgets =
    Array.of_list
      [ 199; 250; 400; 800; 999; 1600; 3200; 4000; 6400; 12800; 19900 ]
  in
  Rng.shuffle_in_place rng budgets;
  let cache = Tdp.Cache.create () in
  Array.iter
    (fun b ->
      let p = Problem.create ~elements:200 ~budget:b ~latency:model in
      let cached = Tdp.solve ~cache p in
      let fresh = Tdp.solve p in
      check_solutions_identical (Printf.sprintf "shuffled b=%d" b) fresh cached)
    budgets

let test_cache_reuse_and_invalidation () =
  let model = linear 100.0 1.0 in
  let cache = Tdp.Cache.create () in
  ignore (Tdp.solve ~cache (Problem.create ~elements:50 ~budget:300 ~latency:model));
  check_int "first solve builds" 1 (Tdp.Cache.misses cache);
  check_int "capacity = first c0" 50 (Tdp.Cache.capacity cache);
  (* smaller c0, same model: tables cover it, no rebuild *)
  ignore (Tdp.solve ~cache (Problem.create ~elements:30 ~budget:200 ~latency:model));
  check_int "smaller c0 reuses" 1 (Tdp.Cache.hits cache);
  check_int "no extra build" 1 (Tdp.Cache.misses cache);
  (* larger c0: tables too small, full rebuild *)
  ignore (Tdp.solve ~cache (Problem.create ~elements:80 ~budget:500 ~latency:model));
  check_int "larger c0 rebuilds" 2 (Tdp.Cache.misses cache);
  check_int "capacity grows" 80 (Tdp.Cache.capacity cache);
  (* model change: same c0, different L — must invalidate *)
  ignore
    (Tdp.solve ~cache
       (Problem.create ~elements:80 ~budget:500 ~latency:(linear 100.0 2.0)));
  check_int "model change rebuilds" 3 (Tdp.Cache.misses cache);
  (* clear resets everything *)
  Tdp.Cache.clear cache;
  check_int "cleared hits" 0 (Tdp.Cache.hits cache);
  check_int "cleared misses" 0 (Tdp.Cache.misses cache);
  check_int "cleared capacity" 0 (Tdp.Cache.capacity cache)

let test_warm_resolve_settles_nothing () =
  let model = Model.paper_mturk in
  let p = Problem.create ~elements:300 ~budget:1200 ~latency:model in
  let cache = Tdp.Cache.create () in
  let cold = Tdp.solve ~cache p in
  check_bool "cold solve settles states" true (cold.Tdp.states_visited > 0);
  let warm = Tdp.solve ~cache p in
  check_int "warm re-solve settles none" 0 warm.Tdp.states_visited;
  check_solutions_identical "warm = cold" cold warm

let test_plan_cache_metrics () =
  let module M = Crowdmax_obs.Metrics in
  let model = linear 100.0 1.0 in
  let metrics = M.create () in
  let cache = Tdp.Cache.create () in
  List.iter
    (fun b ->
      ignore
        (Tdp.solve ~metrics ~cache
           (Problem.create ~elements:40 ~budget:b ~latency:model)))
    [ 108; 200; 300 ];
  let snap = M.snapshot metrics in
  let count name =
    match M.find snap ~section:"planner" name with
    | Some (M.Count n) -> n
    | _ -> Alcotest.fail (Printf.sprintf "missing planner counter %s" name)
  in
  check_int "one table build" 1 (count "plan_cache_misses");
  check_int "two table reuses" 2 (count "plan_cache_hits");
  (* a private per-solve cache records neither *)
  let metrics2 = M.create () in
  ignore
    (Tdp.solve ~metrics:metrics2
       (Problem.create ~elements:40 ~budget:108 ~latency:model));
  let snap2 = M.snapshot metrics2 in
  let private_count name =
    match M.find snap2 ~section:"planner" name with
    | Some (M.Count n) -> n
    | _ -> 0
  in
  check_int "private cache: no hit recorded" 0 (private_count "plan_cache_hits");
  check_int "private cache: no miss recorded" 0
    (private_count "plan_cache_misses")

let test_cached_trivial_instances () =
  let model = linear 100.0 1.0 in
  let cache = Tdp.Cache.create () in
  let one = Tdp.solve ~cache (Problem.create ~elements:1 ~budget:0 ~latency:model) in
  Alcotest.check Alcotest.(list int) "c0=1 cached" [ 1 ] one.Tdp.sequence;
  let two = Tdp.solve ~cache (Problem.create ~elements:2 ~budget:1 ~latency:model) in
  Alcotest.check Alcotest.(list int) "c0=2 cached" [ 2; 1 ] two.Tdp.sequence;
  checkf "c0=2 latency" 101.0 two.Tdp.latency

(* Every unconstrained optimum the cache computed equals the seed's
   eager table bit for bit, value and first argmin, and [ub_entries]
   counts exactly those. Shared with the property tests. *)
let ub_entries_match_seed model cache =
  let c0 = Tdp.Cache.capacity cache in
  let seed_ub, seed_next = Tdp_reference.unconstrained_table model c0 in
  let computed = ref 0 and ok = ref true in
  for c = 2 to c0 do
    match Tdp.Cache.ub_entry cache c with
    | None -> ()
    | Some (v, next) ->
        incr computed;
        if
          not
            (Int64.equal (Int64.bits_of_float v)
               (Int64.bits_of_float seed_ub.(c))
            && next = seed_next.(c))
        then ok := false
  done;
  !ok && !computed = Tdp.Cache.ub_entries cache

let test_ub_on_demand () =
  (* The paper's L(q) at c0 = 1000, b = 4 c0: the round-count bound
     decides almost every comparison, so the solve computes a handful of
     unconstrained optima instead of the c0 - 1 an eager table builds. *)
  let paper = Model.paper_mturk in
  let cache = Tdp.Cache.create () in
  let p = Problem.create ~elements:1000 ~budget:4000 ~latency:paper in
  let sol = Tdp.solve ~cache p in
  let entries = Tdp.Cache.ub_entries cache in
  if entries > 16 then
    Alcotest.failf "paper c0=1000 b=4000 computed %d ub entries (want <= 16)"
      entries;
  check_bool "paper c0=1000 b=4000 entries = seed table" true
    (ub_entries_match_seed paper cache);
  check_solutions_identical "paper c0=1000 b=4000 cached = fresh" (Tdp.solve p)
    sol;
  (* A power L has no cheap bound: every entry a comparison reads is
     computed, by the same producer, and no more than the c0 - 1 rows of
     the seed's table. *)
  let power = Model.power ~delta:239.0 ~alpha:0.002 ~p:1.5 in
  let cache = Tdp.Cache.create () in
  ignore
    (Tdp.solve ~cache (Problem.create ~elements:300 ~budget:1200 ~latency:power));
  let entries = Tdp.Cache.ub_entries cache in
  if entries < 1 || entries > 299 then
    Alcotest.failf "power c0=300 computed %d ub entries (want 1..299)" entries;
  check_bool "power c0=300 entries = seed table" true
    (ub_entries_match_seed power cache);
  Tdp.Cache.clear cache;
  check_int "cleared ub entries" 0 (Tdp.Cache.ub_entries cache)

(* A custom L runs inside the search, so it may plan too. A solve it
   starts through a cache of its own (or none) runs on a private
   workspace and leaves the frames of the solve that called L intact:
   the outer plan equals the one for the same L without the nested
   call, and every inner plan is right. *)
let test_custom_latency_may_solve () =
  let inner = Problem.create ~elements:30 ~budget:60 ~latency:Model.paper_mturk in
  let expected = Tdp.solve inner in
  let inner_cache = Tdp.Cache.create () in
  let wrong = ref 0 and calls = ref 0 in
  let nested =
    Model.Custom
      (fun q ->
        incr calls;
        let cache = if !calls mod 2 = 0 then Some inner_cache else None in
        let s = Tdp.solve ?cache inner in
        if s.Tdp.sequence <> expected.Tdp.sequence then incr wrong;
        (s.Tdp.latency /. expected.Tdp.latency) +. 50.0 +. float_of_int q)
  in
  let plain = Model.Custom (fun q -> 51.0 +. float_of_int q) in
  let p model = Problem.create ~elements:60 ~budget:150 ~latency:model in
  let cache = Tdp.Cache.create () in
  let got = Tdp.solve ~cache (p nested) in
  let want = Tdp.solve (p plain) in
  check_bool "some nested solves ran" true (!calls > 0);
  check_int "every nested plan is right" 0 !wrong;
  check_bool "outer plan = plain L" true
    (got.Tdp.sequence = want.Tdp.sequence
    && Float.equal got.Tdp.latency want.Tdp.latency
    && got.Tdp.states_visited = want.Tdp.states_visited)

(* A custom L that plans through the very cache its own solve runs on,
   or clears it, would pull the tables from under that solve: both
   raise, and the cache is left empty, so the next solve rebuilds it. *)
let test_nested_solve_same_cache_raises () =
  let cache = Tdp.Cache.create () in
  let inner = Problem.create ~elements:10 ~budget:20 ~latency:Model.paper_mturk in
  let reentrant =
    Model.Custom
      (fun q ->
        ignore (Tdp.solve ~cache inner);
        100.0 +. float_of_int q)
  in
  let p = Problem.create ~elements:20 ~budget:40 ~latency:reentrant in
  Alcotest.check_raises "same cache"
    (Invalid_argument
       "Tdp.solve: nested solve through a cache whose solve is running")
    (fun () -> ignore (Tdp.solve ~cache p));
  check_int "empty after the failed solve" 0 (Tdp.Cache.capacity cache);
  check_bool "usable again" true
    ((Tdp.solve ~cache inner).Tdp.sequence = (Tdp.solve inner).Tdp.sequence);
  let clearing =
    Model.Custom
      (fun q ->
        Tdp.Cache.clear cache;
        100.0 +. float_of_int q)
  in
  Alcotest.check_raises "clear under a running solve"
    (Invalid_argument "Tdp.Cache.clear: a solve through this cache is running")
    (fun () ->
      ignore
        (Tdp.solve ~cache (Problem.create ~elements:20 ~budget:40 ~latency:clearing)))

let suite =
  [
    ( "tdp",
      [
        tc "single element" `Quick test_single_element;
        tc "two elements" `Quick test_two_elements;
        tc "paper Sec 2.2 example" `Quick test_paper_intro_example;
        tc "sequence well-formed" `Quick test_sequence_well_formed;
        tc "matches brute force (linear L)" `Slow test_matches_brute_force;
        tc "matches brute force (power L)" `Slow test_matches_brute_force_power;
        tc "bottom-up agrees" `Slow test_bottom_up_agrees;
        tc "monotone in budget" `Quick test_monotone_in_budget;
        tc "min budget chain" `Quick test_min_budget_forces_chain;
        tc "budget limiting (paper 6.5)" `Quick test_budget_limiting;
        tc "convex L limits harder (Fig 14b)" `Quick test_convex_latency_limits_harder;
        tc "huge overhead -> one round" `Quick test_high_overhead_prefers_one_round;
        tc "zero overhead -> chain" `Quick test_zero_overhead_prefers_many_rounds;
        tc "optimal_latency" `Quick test_optimal_latency_helper;
        tc "brute force guard" `Quick test_brute_force_guard;
        tc "states visited" `Quick test_states_visited_positive;
        tc "non-finite L fails loudly" `Quick test_non_finite_latency_fails_loudly;
        tc "failed build is not reused" `Quick test_failed_build_is_not_reused;
        tc "planner metrics" `Quick test_planner_metrics;
        tc "flat arena = hashtbl reference" `Slow test_flat_matches_hashtbl;
        tc "flat = hashtbl outside the round bound" `Slow
          test_flat_matches_hashtbl_unbounded;
        tc "Qmin table = naive recomputation" `Quick test_min_questions_table;
        tc "cache across Qmin table doublings" `Quick
          test_cache_across_table_doubling;
        tc "cached shuffled sweep bit-identical" `Quick
          test_cached_sweep_bit_identical;
        tc "cache reuse and invalidation" `Quick
          test_cache_reuse_and_invalidation;
        tc "warm re-solve settles nothing" `Quick
          test_warm_resolve_settles_nothing;
        tc "plan cache metrics" `Quick test_plan_cache_metrics;
        tc "cached trivial instances" `Quick test_cached_trivial_instances;
        tc "ub on demand = seed table" `Quick test_ub_on_demand;
        tc "custom L may solve" `Quick test_custom_latency_may_solve;
        tc "nested solve through the same cache raises" `Quick
          test_nested_solve_same_cache_raises;
      ] );
  ]
