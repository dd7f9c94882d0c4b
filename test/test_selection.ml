module S = Crowdmax_selection.Selection
module Dag = Crowdmax_graph.Answer_dag
module Ints = Crowdmax_util.Ints
module Rng = Crowdmax_util.Rng

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let fresh_input ?(budget = 10) ?(round_index = 0) ?(total_rounds = 1) n =
  {
    S.budget;
    candidates = Array.init n (fun i -> i);
    history = Dag.create n;
    round_index;
    total_rounds;
    carried = [];
  }

let assert_valid input pairs =
  match S.validate_round input pairs with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("invalid round: " ^ e)

let test_selectors_respect_contract () =
  let rng = Rng.create 3 in
  List.iter
    (fun sel ->
      for _ = 1 to 30 do
        let n = 2 + Rng.int rng 30 in
        let budget = 1 + Rng.int rng 60 in
        let input = fresh_input ~budget n in
        let pairs = sel.S.select rng input in
        assert_valid input pairs
      done)
    S.all

let test_selectors_empty_cases () =
  let rng = Rng.create 5 in
  List.iter
    (fun sel ->
      check_int (sel.S.name ^ ": one candidate") 0
        (List.length (sel.S.select rng (fresh_input 1)));
      check_int (sel.S.name ^ ": zero budget") 0
        (List.length (sel.S.select rng (fresh_input ~budget:0 5))))
    S.all

let test_tournament_uses_min_groups () =
  let rng = Rng.create 7 in
  (* 12 candidates, 18 questions: exactly three 4-cliques = 18 edges *)
  let input = fresh_input ~budget:18 12 in
  let pairs = S.tournament.S.select rng input in
  check_int "all 18 used" 18 (List.length pairs)

let test_tournament_leftover_cross_questions () =
  let rng = Rng.create 9 in
  (* 12 candidates, budget 20: G_T(12,3) = 18, 2 cross-tournament extras *)
  let input = fresh_input ~budget:20 12 in
  let pairs = S.tournament.S.select rng input in
  check_int "20 questions" 20 (List.length pairs);
  assert_valid input pairs

let test_tournament_single_clique_caps () =
  let rng = Rng.create 11 in
  (* 6 candidates, budget 33 (HE example): only choose2 6 = 15 distinct *)
  let input = fresh_input ~budget:33 6 in
  let pairs = S.tournament.S.select rng input in
  check_int "15 distinct pairs" 15 (List.length pairs)

let test_tournament_eliminates_enough () =
  (* the winners of G_T(c, g) are exactly g: orient by any truth and
     count candidates *)
  let rng = Rng.create 13 in
  for _ = 1 to 20 do
    let n = 4 + Rng.int rng 40 in
    let input = fresh_input ~budget:(n / 2) n in
    let pairs = S.tournament.S.select rng input in
    let dag = Dag.create n in
    let truth = Rng.permutation rng n in
    List.iter
      (fun (a, b) ->
        let w, l = if truth.(a) > truth.(b) then (a, b) else (b, a) in
        Dag.add_answer dag ~winner:w ~loser:l)
      pairs;
    let advancing = List.length (Dag.remaining_candidates dag) in
    check_bool "advances at most the clique count" true (advancing < n)
  done

let test_spread_near_regular_degrees () =
  let rng = Rng.create 17 in
  (* budget = c: one full matching plus half of another *)
  let n = 12 in
  let input = fresh_input ~budget:n n in
  let pairs = S.spread.S.select rng input in
  check_int "budget used" n (List.length pairs);
  let deg = Array.make n 0 in
  List.iter
    (fun (a, b) ->
      deg.(a) <- deg.(a) + 1;
      deg.(b) <- deg.(b) + 1)
    pairs;
  let mx = Array.fold_left max 0 deg and mn = Array.fold_left min 99 deg in
  check_bool "degrees within 2" true (mx - mn <= 2)

let test_spread_exhausts_clique () =
  let rng = Rng.create 19 in
  let n = 5 in
  let input = fresh_input ~budget:100 n in
  let pairs = S.spread.S.select rng input in
  check_int "all choose2 pairs" (Ints.choose2 n) (List.length pairs)

let test_complete_covers_everyone () =
  let rng = Rng.create 23 in
  let n = 12 in
  (* budget >= choose2 k + (n - k): pick enough for k = 4 plus coverage *)
  let input = fresh_input ~budget:(Ints.choose2 4 + (n - 4)) n in
  let pairs = S.complete.S.select rng input in
  let touched = Array.make n false in
  List.iter
    (fun (a, b) ->
      touched.(a) <- true;
      touched.(b) <- true)
    pairs;
  Array.iteri
    (fun i t -> check_bool (Printf.sprintf "element %d touched" i) true t)
    touched

let test_complete_uses_scores () =
  let rng = Rng.create 29 in
  (* history: candidate 0 beat many, so it must sit in the clique *)
  let n = 8 in
  let history = Dag.create 16 in
  (* candidates 0..7 survive; 8..15 lost to 0 or 1 *)
  for j = 8 to 11 do
    Dag.add_answer history ~winner:0 ~loser:j
  done;
  for j = 12 to 15 do
    Dag.add_answer history ~winner:1 ~loser:j
  done;
  let input =
    {
      S.budget = Ints.choose2 3 + (n - 3);
      candidates = Array.init n (fun i -> i);
      history;
      round_index = 3;
      total_rounds = 4;
      carried = [];
    }
  in
  let pairs = S.complete.S.select rng input in
  (* strongest candidates 0 and 1 must face each other in the clique *)
  check_bool "0 vs 1 asked" true
    (List.exists (fun (a, b) -> (a = 0 && b = 1) || (a = 1 && b = 0)) pairs)

let test_ct_switches_phases () =
  let rng = Rng.create 31 in
  let n = 10 in
  (* CT25 over 4 rounds: round 0 = SPREAD, rounds 1-3 = COMPLETE. The
     SPREAD round keeps degrees even; the COMPLETE rounds concentrate on
     a clique. Detect via degree spread. *)
  let spread_like round_index =
    let input = fresh_input ~budget:n ~round_index ~total_rounds:4 n in
    let pairs = S.ct25.S.select rng input in
    let deg = Array.make n 0 in
    List.iter
      (fun (a, b) ->
        deg.(a) <- deg.(a) + 1;
        deg.(b) <- deg.(b) + 1)
      pairs;
    Array.fold_left max 0 deg - Array.fold_left min 99 deg <= 2
  in
  check_bool "round 0 spread-like" true (spread_like 0);
  check_bool "round 1 clique-like" false (spread_like 1)

let test_ct_fraction_validation () =
  Alcotest.check_raises "bad fraction" (Invalid_argument "Selection.ct: fraction")
    (fun () -> ignore (S.ct 1.5))

let test_ct_names () =
  Alcotest.check Alcotest.string "ct25" "CT25" S.ct25.S.name;
  Alcotest.check Alcotest.string "ct50" "CT50" S.ct50.S.name;
  Alcotest.check Alcotest.string "ct75" "CT75" S.ct75.S.name;
  Alcotest.check Alcotest.string "sg25" "SG25" (S.sg 0.25).S.name;
  Alcotest.check Alcotest.string "split default name" "SPREAD50+GREEDY"
    (S.split 0.5 S.spread S.greedy).S.name

let test_split_boundaries () =
  let rng = Rng.create 41 in
  let n = 10 in
  (* with no history, GREEDY builds a clique over the 4 lowest ids
     (choose2 4 = budget 6) while SPREAD's first matching touches all 10
     candidates - so the touched-element count reveals which phase ran *)
  let touched sel round_index =
    let input = fresh_input ~budget:6 ~round_index ~total_rounds:4 n in
    let pairs = sel.S.select rng input in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (a, b) ->
        Hashtbl.replace seen a ();
        Hashtbl.replace seen b ())
      pairs;
    Hashtbl.length seen
  in
  let never_early = S.split 0.0 S.spread S.greedy in
  let always_early = S.split 1.0 S.spread S.greedy in
  check_int "fraction 0 -> late (greedy) from round 0" 4 (touched never_early 0);
  check_int "fraction 1 -> early (spread) even in last round" 10
    (touched always_early 3)

let test_sg_is_valid () =
  let rng = Rng.create 43 in
  for round_index = 0 to 3 do
    let input = fresh_input ~budget:12 ~round_index ~total_rounds:4 20 in
    let pairs = (S.sg 0.25).S.select rng input in
    assert_valid input pairs
  done

let test_greedy_focuses_on_top () =
  let rng = Rng.create 37 in
  let n = 10 in
  let input = fresh_input ~budget:(Ints.choose2 4) n in
  let pairs = S.greedy.S.select rng input in
  check_int "clique over top 4" (Ints.choose2 4) (List.length pairs);
  assert_valid input pairs

let test_validate_round_catches_errors () =
  let input = fresh_input ~budget:2 4 in
  (match S.validate_round input [ (0, 1); (2, 3); (0, 2) ] with
  | Error e -> Alcotest.check Alcotest.string "budget" "over budget" e
  | Ok _ -> Alcotest.fail "expected over budget");
  (match S.validate_round input [ (0, 0) ] with
  | Error e -> Alcotest.check Alcotest.string "self" "self-comparison" e
  | Ok _ -> Alcotest.fail "expected self-comparison");
  (match S.validate_round input [ (0, 1); (1, 0) ] with
  | Error e -> Alcotest.check Alcotest.string "dup" "duplicate pair in round" e
  | Ok _ -> Alcotest.fail "expected duplicate");
  match S.validate_round input [ (0, 9) ] with
  | Error e -> Alcotest.check Alcotest.string "foreign" "non-candidate element" e
  | Ok _ -> Alcotest.fail "expected non-candidate"

(* --- buffer fills against the frozen list selectors -------------------- *)

module Ref = Selection_reference
module Pairs = Crowdmax_util.Pairs

(* One generated round: a history over [n] elements whose losers took
   their losses from a hidden total order, and the round's candidates,
   either the history's own RC set (the engine's case) or a hand-built
   set of distinct ids, in any order, that may reach past the history's
   range. *)
type round_case = {
  seed : int;
  n : int;
  losers : int;
  hand_built : bool;
  c_hand : int;
  budget : int;
  total : int;
  index : int;
}

let build_round k =
  let rng = Rng.create k.seed in
  let ranks = Rng.permutation rng k.n in
  let dag = Dag.create k.n in
  let by_rank = Array.make k.n 0 in
  Array.iteri (fun e r -> by_rank.(r) <- e) ranks;
  (* the [losers] weakest-first picks among all but the top element each
     lose to one to three stronger elements *)
  let order = Rng.permutation rng (max 0 (k.n - 1)) in
  for i = 0 to k.losers - 1 do
    let l = by_rank.(order.(i)) in
    for _ = 0 to Rng.int rng 3 do
      let w = by_rank.(ranks.(l) + 1 + Rng.int rng (k.n - 1 - ranks.(l))) in
      Dag.add_answer_unchecked dag ~winner:w ~loser:l
    done
  done;
  let candidates =
    if k.hand_built then
      Array.sub (Rng.permutation rng (k.n + 25)) 0 (min k.c_hand (k.n + 25))
    else Dag.candidates dag
  in
  {
    S.budget = k.budget;
    candidates;
    history = dag;
    round_index = k.index;
    total_rounds = k.total;
    carried = [];
  }

(* Few candidates with budgets past choose2 c (the exhaustion paths),
   or up to 600 candidates with budgets up to 8 c. *)
let round_case_gen =
  QCheck.Gen.(
    let* seed = int_bound 1_000_000 in
    let* c, budget =
      oneof
        [
          (let* c = int_range 0 40 in
           let+ b = int_range 0 (Ints.choose2 c + 6) in
           (c, b));
          (let* c = int_range 41 600 in
           let+ b = int_range 0 (8 * c) in
           (c, b));
        ]
    in
    let* losers = int_range 0 40 in
    let* hand_built = bool in
    let* total = int_range 1 6 in
    let+ index = int_bound (total - 1) in
    let n = max 1 (c + losers) in
    let losers = if c = 0 then n - 1 else losers in
    { seed; n; losers; hand_built; c_hand = c; budget; total; index })

let print_round_case k =
  Printf.sprintf "seed=%d n=%d losers=%d hand_built=%b c=%d budget=%d round %d/%d"
    k.seed k.n k.losers k.hand_built k.c_hand k.budget k.index k.total

(* A fill appends after pairs already in the buffer, writes the
   reference's list in order, and leaves the rng where the reference
   leaves it; the list view is the same list. *)
let fill_matches_reference k =
  let input = build_round k in
  List.for_all2
    (fun (sel : S.t) (name, reference) ->
      let base = Rng.create (k.seed + 7) in
      let r_ref = Rng.copy base and r_fill = Rng.copy base and r_view = Rng.copy base in
      let expect = reference r_ref input in
      let out = Pairs.of_list [ (-1, -2); (-3, -4) ] in
      sel.S.fill r_fill input out;
      let got = Pairs.to_list out in
      let view = sel.S.select r_view input in
      let ok =
        String.equal sel.S.name name
        && got = (-1, -2) :: (-3, -4) :: expect
        && view = expect
        && Rng.draws_since ~base r_fill = Rng.draws_since ~base r_ref
        && Rng.draws_since ~base r_view = Rng.draws_since ~base r_ref
      in
      if not ok then
        QCheck.Test.fail_reportf "%s: %d pairs vs %d in the reference" name
          (Pairs.length out - 2) (List.length expect);
      ok)
    S.all Ref.all

let prop_fill_matches_reference =
  QCheck.Test.make ~name:"built-in fills = list reference (pairs, order, draws)"
    ~count:150
    (QCheck.make ~print:print_round_case round_case_gen)
    fill_matches_reference

let suite =
  [
    ( "selection",
      [
        tc "contract respected by all selectors" `Quick test_selectors_respect_contract;
        tc "empty cases" `Quick test_selectors_empty_cases;
        tc "tournament min groups" `Quick test_tournament_uses_min_groups;
        tc "tournament cross extras" `Quick test_tournament_leftover_cross_questions;
        tc "tournament single clique caps" `Quick test_tournament_single_clique_caps;
        tc "tournament eliminates" `Quick test_tournament_eliminates_enough;
        tc "spread near-regular" `Quick test_spread_near_regular_degrees;
        tc "spread exhausts clique" `Quick test_spread_exhausts_clique;
        tc "complete covers everyone" `Quick test_complete_covers_everyone;
        tc "complete uses scores" `Quick test_complete_uses_scores;
        tc "ct switches phases" `Quick test_ct_switches_phases;
        tc "ct fraction validation" `Quick test_ct_fraction_validation;
        tc "ct names" `Quick test_ct_names;
        tc "split boundaries" `Quick test_split_boundaries;
        tc "sg valid" `Quick test_sg_is_valid;
        tc "greedy focuses on top" `Quick test_greedy_focuses_on_top;
        tc "validate_round errors" `Quick test_validate_round_catches_errors;
        QCheck_alcotest.to_alcotest prop_fill_matches_reference;
      ] );
  ]
