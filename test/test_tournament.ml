module T = Crowdmax_tournament.Tournament
module U = Crowdmax_graph.Undirected
module Rng = Crowdmax_util.Rng
module Ints = Crowdmax_util.Ints

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let test_questions_paper_examples () =
  (* G_T(20,5) = 30 (Fig. 2); G_T(24,5) = 46 (Fig. 3); Q(100,25) = 150
     and Q(50,25) = 25 (Fig. 5); Q(40,20)=20, Q(20,5)=30, Q(5,1)=10 and
     Q(40,8)=80, Q(8,1)=28 (Fig. 4). *)
  check_int "G_T(20,5)" 30 (T.questions 20 5);
  check_int "G_T(24,5)" 46 (T.questions 24 5);
  check_int "Q(100,25)" 150 (T.questions 100 25);
  check_int "Q(50,25)" 25 (T.questions 50 25);
  check_int "Q(40,20)" 20 (T.questions 40 20);
  check_int "Q(5,1)" 10 (T.questions 5 1);
  check_int "Q(40,8)" 80 (T.questions 40 8);
  check_int "Q(8,1)" 28 (T.questions 8 1)

let test_questions_identities () =
  (* Q(c, c) = 0; Q(c, 1) = choose2 c; Q(c, c/2) = c/2 for even c *)
  for c = 1 to 50 do
    check_int "no-op round" 0 (T.questions c c);
    check_int "full clique" (Ints.choose2 c) (T.questions c 1)
  done;
  for c = 2 to 50 do
    if c mod 2 = 0 then check_int "halving" (c / 2) (T.questions c (c / 2))
  done

let test_questions_rejects () =
  Alcotest.check_raises "c_next = 0" (Invalid_argument "Tournament: need 1 <= c_next <= c_prev")
    (fun () -> ignore (T.questions 5 0));
  Alcotest.check_raises "c_next > c" (Invalid_argument "Tournament: need 1 <= c_next <= c_prev")
    (fun () -> ignore (T.questions 5 6))

let test_sizes_paper_example () =
  Alcotest.check Alcotest.(list int) "24 into 5" [ 5; 5; 5; 5; 4 ] (T.sizes 24 5);
  Alcotest.check Alcotest.(list int) "20 into 5" [ 4; 4; 4; 4; 4 ] (T.sizes 20 5)

let test_sizes_invariants () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let c = 1 + Rng.int rng 100 in
    let k = 1 + Rng.int rng c in
    let sizes = T.sizes c k in
    check_int "count" k (List.length sizes);
    check_int "total" c (Ints.sum sizes);
    let mx = List.fold_left max 0 sizes and mn = List.fold_left min c sizes in
    check_bool "balanced" true (mx - mn <= 1)
  done

let test_questions_matches_sizes () =
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let c = 1 + Rng.int rng 80 in
    let k = 1 + Rng.int rng c in
    let via_sizes = Ints.sum (List.map Ints.choose2 (T.sizes c k)) in
    check_int "Eq. 2 consistent" via_sizes (T.questions c k)
  done

let test_questions_decreasing_in_groups () =
  (* more tournaments = fewer questions *)
  for k = 1 to 19 do
    check_bool "monotone" true (T.questions 20 k >= T.questions 20 (k + 1))
  done

let test_min_groups_within_budget () =
  (* 12 elements, 18 questions: G_T(12,3) = 18 fits, G_T(12,2) = 30 no *)
  Alcotest.check Alcotest.(option int) "12/18" (Some 3)
    (T.min_groups_within_budget 12 18);
  Alcotest.check Alcotest.(option int) "12/17" (Some 4)
    (T.min_groups_within_budget 12 17);
  Alcotest.check Alcotest.(option int) "single clique" (Some 1)
    (T.min_groups_within_budget 6 15);
  Alcotest.check Alcotest.(option int) "zero budget" None
    (T.min_groups_within_budget 6 0);
  Alcotest.check Alcotest.(option int) "one element" (Some 1)
    (T.min_groups_within_budget 1 0)

let test_min_groups_feasible () =
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let c = 2 + Rng.int rng 60 in
    let b = 1 + Rng.int rng 100 in
    match T.min_groups_within_budget c b with
    | None -> check_bool "only when b < 1" true (b < 1)
    | Some g ->
        check_bool "fits" true (T.questions c g <= b);
        if g > 1 then check_bool "minimal" true (T.questions c (g - 1) > b)
  done

let test_min_groups_bisection_equals_scan () =
  (* The least fitting group count, found by scanning up from one
     group; the bisection must return it for every collection size and
     budget, including budgets below one question and past choose2 c. *)
  let scan c b =
    let rec loop g =
      if g >= c then None else if T.questions c g <= b then Some g else loop (g + 1)
    in
    loop 1
  in
  let rng = Rng.create 13 in
  for c = 2 to 400 do
    let budgets =
      [ -1; 0; 1; c - 2; c - 1; c; Ints.choose2 c - 1; Ints.choose2 c; Ints.choose2 c + 1 ]
      @ List.init 20 (fun _ -> Rng.int rng (Ints.choose2 c + 2))
    in
    List.iter
      (fun b ->
        Alcotest.check Alcotest.(option int)
          (Printf.sprintf "c=%d b=%d" c b)
          (scan c b) (T.min_groups_within_budget c b))
      budgets
  done

let test_assign_partitions () =
  let rng = Rng.create 11 in
  let elements = Array.init 24 (fun i -> i * 10) in
  let a = T.assign rng elements 5 in
  check_int "5 groups" 5 (Array.length a.T.groups);
  let all = Array.concat (Array.to_list a.T.groups) in
  let sorted = Array.copy all in
  Array.sort compare sorted;
  Alcotest.check Alcotest.(array int) "partition of input"
    (Array.init 24 (fun i -> i * 10))
    sorted

let test_assign_seeded_deals_round_robin () =
  let a = T.assign_seeded [| 0; 1; 2; 3; 4; 5 |] 2 in
  (* dealt 0,1,2,3,4,5 across 2 cliques of 3 *)
  Alcotest.check Alcotest.(array int) "clique 0" [| 0; 2; 4 |] a.T.groups.(0);
  Alcotest.check Alcotest.(array int) "clique 1" [| 1; 3; 5 |] a.T.groups.(1)

let test_edges_of_assignment () =
  let a = T.assign_seeded [| 0; 1; 2; 3 |] 2 in
  let edges = List.sort compare (T.edges_of_assignment a) in
  Alcotest.check Alcotest.(list (pair int int)) "intra-clique pairs"
    [ (0, 2); (1, 3) ] edges;
  check_int "count matches" (T.questions 4 2) (T.questions_of_assignment a)

let test_assignment_edge_count_matches_q () =
  let rng = Rng.create 13 in
  for _ = 1 to 100 do
    let c = 1 + Rng.int rng 50 in
    let k = 1 + Rng.int rng c in
    let a = T.assign rng (Array.init c (fun i -> i)) k in
    check_int "edges = Q" (T.questions c k) (List.length (T.edges_of_assignment a))
  done

let test_to_undirected () =
  let rng = Rng.create 17 in
  let a = T.assign rng (Array.init 20 (fun i -> i)) 5 in
  let g = T.to_undirected 20 a in
  check_int "30 edges (Fig 2)" 30 (U.edge_count g);
  check_bool "near regular (Thm 5 premise)" true (U.is_near_regular g)

let suite =
  [
    ( "tournament",
      [
        tc "paper Q examples" `Quick test_questions_paper_examples;
        tc "Q identities" `Quick test_questions_identities;
        tc "Q rejects" `Quick test_questions_rejects;
        tc "sizes paper example" `Quick test_sizes_paper_example;
        tc "sizes invariants" `Quick test_sizes_invariants;
        tc "Q consistent with sizes" `Quick test_questions_matches_sizes;
        tc "Q decreasing in groups" `Quick test_questions_decreasing_in_groups;
        tc "min groups within budget" `Quick test_min_groups_within_budget;
        tc "min groups bisection = scan" `Quick test_min_groups_bisection_equals_scan;
        tc "min groups feasible+minimal" `Quick test_min_groups_feasible;
        tc "assign partitions" `Quick test_assign_partitions;
        tc "seeded deal" `Quick test_assign_seeded_deals_round_robin;
        tc "edges of assignment" `Quick test_edges_of_assignment;
        tc "edge count = Q" `Quick test_assignment_edge_count_matches_q;
        tc "to undirected" `Quick test_to_undirected;
      ] );
  ]
