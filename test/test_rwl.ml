module Rwl = Crowdmax_crowd.Rwl
module W = Crowdmax_crowd.Worker
module G = Crowdmax_crowd.Ground_truth
module Rng = Crowdmax_util.Rng

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool

let all_pairs n =
  List.concat
    (List.init n (fun i -> List.init (n - 1 - i) (fun k -> (i, i + 1 + k))))

let test_perfect_workers_exact () =
  let rng = Rng.create 3 in
  let truth = G.random rng 12 in
  let qs = all_pairs 12 in
  let o = Rwl.resolve rng { Rwl.votes = 1; error = W.Perfect } ~truth qs in
  Alcotest.check (Alcotest.float 1e-9) "accuracy 1" 1.0 o.Rwl.accuracy;
  check_int "no flips" 0 o.Rwl.vote_flips;
  check_int "no cycle repairs" 0 o.Rwl.cycle_edges_flipped;
  check_int "raw = asked" (List.length qs) o.Rwl.raw_questions

let test_output_one_answer_per_question () =
  let rng = Rng.create 5 in
  let truth = G.random rng 8 in
  let qs = all_pairs 8 in
  let o = Rwl.resolve rng { Rwl.votes = 3; error = W.Uniform 0.3 } ~truth qs in
  check_int "same count" (List.length qs) (List.length o.Rwl.answers);
  (* each output answer orients exactly its input question *)
  let normalize (a, b) = if a < b then (a, b) else (b, a) in
  let asked = List.sort compare (List.map normalize qs) in
  let answered = List.sort compare (List.map normalize o.Rwl.answers) in
  Alcotest.check Alcotest.(list (pair int int)) "same pairs" asked answered

let test_conflict_free_under_heavy_errors () =
  (* the central contract: output is acyclic no matter how bad the
     raw answers are *)
  let rng = Rng.create 7 in
  for trial = 1 to 30 do
    let n = 4 + Rng.int rng 10 in
    let truth = G.random rng n in
    let o =
      Rwl.resolve rng
        { Rwl.votes = 1; error = W.Uniform 0.5 }
        ~truth (all_pairs n)
    in
    check_bool
      (Printf.sprintf "trial %d acyclic" trial)
      true
      (Rwl.is_conflict_free ~n o.Rwl.answers)
  done

let test_raw_question_accounting () =
  let rng = Rng.create 9 in
  let truth = G.random rng 6 in
  let o = Rwl.resolve rng { Rwl.votes = 5; error = W.Perfect } ~truth (all_pairs 6) in
  check_int "votes x questions" (5 * 15) o.Rwl.raw_questions

let test_majority_vote_improves_accuracy () =
  let rng = Rng.create 11 in
  let truth = G.random rng 10 in
  let qs = all_pairs 10 in
  let acc votes =
    let total = ref 0.0 in
    for _ = 1 to 30 do
      let o = Rwl.resolve rng { Rwl.votes; error = W.Uniform 0.25 } ~truth qs in
      total := !total +. o.Rwl.accuracy
    done;
    !total /. 30.0
  in
  check_bool "5 votes beat 1" true (acc 5 > acc 1)

let test_empty_input () =
  let rng = Rng.create 13 in
  let truth = G.random rng 4 in
  let o = Rwl.resolve rng Rwl.default_config ~truth [] in
  check_int "no answers" 0 (List.length o.Rwl.answers);
  Alcotest.check (Alcotest.float 1e-9) "vacuous accuracy" 1.0 o.Rwl.accuracy

let test_votes_validation () =
  let rng = Rng.create 15 in
  let truth = G.random rng 4 in
  Alcotest.check_raises "votes < 1" (Invalid_argument "Rwl.resolve: votes < 1")
    (fun () ->
      ignore (Rwl.resolve rng { Rwl.votes = 0; error = W.Perfect } ~truth []))

let test_self_comparison_rejected () =
  let rng = Rng.create 17 in
  let truth = G.random rng 4 in
  Alcotest.check_raises "self" (Invalid_argument "Rwl.resolve: self-comparison")
    (fun () ->
      ignore (Rwl.resolve rng Rwl.default_config ~truth [ (2, 2) ]))

let test_is_conflict_free () =
  check_bool "chain ok" true (Rwl.is_conflict_free ~n:3 [ (0, 1); (1, 2) ]);
  check_bool "triangle cycle" false
    (Rwl.is_conflict_free ~n:3 [ (0, 1); (1, 2); (2, 0) ])

let test_cycle_resolution_flips_some_edge () =
  (* force a cyclic vote pattern often enough that resolution must act:
     50% error on a triangle, many trials *)
  let rng = Rng.create 19 in
  let truth = G.random rng 3 in
  let saw_flip = ref false in
  for _ = 1 to 200 do
    let o =
      Rwl.resolve rng
        { Rwl.votes = 1; error = W.Uniform 0.5 }
        ~truth
        [ (0, 1); (1, 2); (0, 2) ]
    in
    if o.Rwl.cycle_edges_flipped > 0 then saw_flip := true;
    check_bool "always acyclic" true (Rwl.is_conflict_free ~n:3 o.Rwl.answers)
  done;
  check_bool "resolution exercised" true !saw_flip

(* The tie-bias regression. With 2 votes and 50% worker error, exactly
   half of all questions split 1-1, and a split must fall to either
   element with equal probability: the historical bug awarded every
   tie to the second element, making the first win only ~25% of the
   time instead of ~50%. Seed-averaged so the check is about the
   estimator, not one lucky stream. *)
let test_even_vote_tie_fairness () =
  let trials = 2000 in
  let first_wins = ref 0 in
  for seed = 1 to trials do
    let rng = Rng.create seed in
    let truth = G.of_ranks [| 1; 0 |] in
    let o =
      Rwl.resolve rng { Rwl.votes = 2; error = W.Uniform 0.5 } ~truth [ (0, 1) ]
    in
    match o.Rwl.answers with
    | [ (w, _) ] -> if w = 0 then incr first_wins
    | _ -> Alcotest.fail "expected one answer"
  done;
  let frac = float_of_int !first_wins /. float_of_int trials in
  check_bool
    (Printf.sprintf "first element wins %.3f of ties (want ~0.5)" frac)
    true
    (frac > 0.45 && frac < 0.55)

let test_odd_votes_never_tie () =
  (* an odd vote count cannot split evenly, so resolve must not consume
     any tie-break draws: two rngs from the same seed, one used for an
     odd-vote resolve, must stay in lockstep *)
  let rng1 = Rng.create 31 and rng2 = Rng.create 31 in
  let truth = G.random rng1 8 in
  let _ = G.random rng2 8 in
  let qs = all_pairs 8 in
  let o1 = Rwl.resolve rng1 { Rwl.votes = 3; error = W.Uniform 0.3 } ~truth qs in
  let o2 = Rwl.resolve rng2 { Rwl.votes = 3; error = W.Uniform 0.3 } ~truth qs in
  Alcotest.check
    Alcotest.(list (pair int int))
    "identical streams" o1.Rwl.answers o2.Rwl.answers;
  check_int "same draw position" (Rng.int rng1 1000000) (Rng.int rng2 1000000)

let test_partial_votes_zero_is_unanswered () =
  let rng = Rng.create 33 in
  let truth = G.random rng 6 in
  let qs = [ (0, 1); (2, 3); (4, 5) ] in
  let o =
    Rwl.resolve ~votes_received:[| 3; 0; 2 |] rng
      { Rwl.votes = 3; error = W.Perfect }
      ~truth qs
  in
  check_int "two answered" 2 (List.length o.Rwl.answers);
  Alcotest.check
    Alcotest.(list (pair int int))
    "middle question unanswered" [ (2, 3) ] o.Rwl.unanswered;
  (* every repetition was posted, whether or not it came back *)
  check_int "raw counts posted repetitions" 9 o.Rwl.raw_questions;
  Alcotest.check (Alcotest.float 1e-9) "accuracy over answered only" 1.0
    o.Rwl.accuracy

let test_all_votes_received_matches_plain () =
  let run f =
    let rng = Rng.create 35 in
    let truth = G.random rng 7 in
    f rng truth
  in
  let qs = all_pairs 7 in
  let cfg = { Rwl.votes = 3; error = W.Uniform 0.2 } in
  let plain = run (fun rng truth -> Rwl.resolve rng cfg ~truth qs) in
  let full =
    run (fun rng truth ->
        Rwl.resolve
          ~votes_received:(Array.make (List.length qs) 3)
          rng cfg ~truth qs)
  in
  Alcotest.check
    Alcotest.(list (pair int int))
    "full votes_received = no votes_received" plain.Rwl.answers full.Rwl.answers

let test_votes_received_validation () =
  let rng = Rng.create 37 in
  let truth = G.random rng 4 in
  let cfg = { Rwl.votes = 3; error = W.Perfect } in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Rwl.resolve: votes_received length mismatch") (fun () ->
      ignore (Rwl.resolve ~votes_received:[| 3 |] rng cfg ~truth [ (0, 1); (2, 3) ]));
  Alcotest.check_raises "negative entry"
    (Invalid_argument "Rwl.resolve: votes_received out of [0, votes]")
    (fun () ->
      ignore (Rwl.resolve ~votes_received:[| -1 |] rng cfg ~truth [ (0, 1) ]));
  Alcotest.check_raises "entry above votes"
    (Invalid_argument "Rwl.resolve: votes_received out of [0, votes]")
    (fun () ->
      ignore (Rwl.resolve ~votes_received:[| 4 |] rng cfg ~truth [ (0, 1) ]))

(* --- differential: array kernel vs the list-and-closure reference ------- *)

module Ref = Rwl_reference

type case = {
  seed : int;
  elements : int;
  votes : int;
  error : W.error_model;
  questions : (int * int) list;
  received : int array option;
}

let print_case c =
  Printf.sprintf "seed=%d elements=%d votes=%d questions=%d received=%s error=%s"
    c.seed c.elements c.votes (List.length c.questions)
    (match c.received with
    | None -> "none"
    | Some r ->
        String.concat "," (Array.to_list (Array.map string_of_int r)))
    (match c.error with
    | W.Perfect -> "perfect"
    | W.Uniform p -> Printf.sprintf "uniform %g" p
    | W.Distance_sensitive { base; halfwidth } ->
        Printf.sprintf "distance %g/%g" base halfwidth)

(* Few elements and many questions make dense vote graphs with large
   SCCs; many elements make sparse ones. Questions may repeat. *)
let case_gen =
  let open QCheck.Gen in
  let* seed = int_range 0 1_000_000 in
  let* elements = oneof [ int_range 2 12; int_range 2 1000 ] in
  let* votes = int_range 1 5 in
  let* error =
    oneof
      [
        return W.Perfect;
        map (fun p -> W.Uniform p) (oneofl [ -0.2; 0.0; 0.15; 0.5; 1.0; 1.3 ]);
        map2
          (fun base halfwidth -> W.Distance_sensitive { base; halfwidth })
          (float_range 0.0 1.2) (float_range 0.1 100.0);
      ]
  in
  let* n_q = oneof [ int_range 0 30; int_range 0 1000 ] in
  let pair =
    let* a = int_bound (elements - 1) in
    let+ d = int_bound (elements - 2) in
    (a, (a + 1 + d) mod elements)
  in
  let* questions = list_repeat n_q pair in
  let+ received =
    option
      (array_repeat n_q (frequency [ (1, return 0); (3, int_range 0 votes) ]))
  in
  { seed; elements; votes; error; questions; received }

let insert_at i x l =
  List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

(* One defect per case: a bad vote count, a self-comparison (with a
   [votes_received] now one short, so the checks' order shows), an
   out-of-range id (on a question that may have received no votes,
   which is not rejected), or a malformed [votes_received]. *)
let bad_case_gen =
  let open QCheck.Gen in
  let* c = case_gen in
  let n_q = List.length c.questions in
  let* pos = int_bound n_q in
  oneof
    [
      map (fun votes -> { c with votes }) (oneofl [ 0; -1 ]);
      map
        (fun x -> { c with questions = insert_at pos (x, x) c.questions })
        (int_bound (c.elements - 1));
      (let* bad = oneofl [ (c.elements, 0); (-1, 1); (0, c.elements + 7) ] in
       let+ got = int_range 0 c.votes in
       let old i =
         match c.received with Some r -> r.(i) | None -> c.votes
       in
       {
         c with
         questions = insert_at pos bad c.questions;
         received =
           Some
             (Array.init (n_q + 1) (fun i ->
                  if i < pos then old i else if i = pos then got else old (i - 1)));
       });
      return { c with received = Some (Array.make (n_q + 1) 0) };
      map
        (fun v -> { c with received = Some (Array.make (max 1 n_q) v) })
        (oneofl [ -1; c.votes + 1 ]);
    ]

let run f = match f () with o -> Ok o | exception Invalid_argument msg -> Error msg

let same_outcome (x : Rwl.outcome) (y : Rwl.outcome) =
  x.Rwl.answers = y.Rwl.answers
  && x.Rwl.unanswered = y.Rwl.unanswered
  && x.Rwl.raw_questions = y.Rwl.raw_questions
  && x.Rwl.vote_flips = y.Rwl.vote_flips
  && x.Rwl.cycle_edges_flipped = y.Rwl.cycle_edges_flipped
  && Int64.equal
       (Int64.bits_of_float x.Rwl.accuracy)
       (Int64.bits_of_float y.Rwl.accuracy)

(* Same result (outcome or [Invalid_argument] message) and the same
   number of rng draws, from one seed. *)
let agrees ~kernel ~reference c =
  let base = Rng.create c.seed in
  let truth = G.random (Rng.create (c.seed + 1)) (max 0 c.elements) in
  let r1 = Rng.copy base and r2 = Rng.copy base in
  let same =
    match (run (fun () -> kernel r1 truth c), run (fun () -> reference r2 truth c)) with
    | Ok x, Ok y -> same_outcome x y
    | Error a, Error b -> String.equal a b
    | _ -> false
  in
  same && Rng.draws_since ~base r1 = Rng.draws_since ~base r2

let resolve_with f rng truth c =
  f ?votes_received:c.received rng { Rwl.votes = c.votes; error = c.error } ~truth
    c.questions

let resolve_agrees =
  agrees
    ~kernel:(resolve_with (fun ?votes_received -> Rwl.resolve ?votes_received))
    ~reference:(resolve_with (fun ?votes_received -> Ref.resolve ?votes_received))

let prop_resolve_matches_reference =
  QCheck.Test.make ~name:"resolve = list reference (outcome, draws)" ~count:300
    (QCheck.make ~print:print_case case_gen)
    resolve_agrees

let prop_resolve_errors_match_reference =
  QCheck.Test.make ~name:"resolve = list reference on bad input" ~count:300
    (QCheck.make ~print:print_case bad_case_gen)
    resolve_agrees

let suite =
  [
    ( "rwl",
      [
        tc "even-vote tie fairness" `Slow test_even_vote_tie_fairness;
        tc "odd votes never consult tie-break rng" `Quick test_odd_votes_never_tie;
        tc "partial votes: zero received is unanswered" `Quick
          test_partial_votes_zero_is_unanswered;
        tc "full votes_received matches plain resolve" `Quick
          test_all_votes_received_matches_plain;
        tc "votes_received validation" `Quick test_votes_received_validation;
        tc "perfect workers exact" `Quick test_perfect_workers_exact;
        tc "one answer per question" `Quick test_output_one_answer_per_question;
        tc "conflict-free under heavy errors" `Quick test_conflict_free_under_heavy_errors;
        tc "raw question accounting" `Quick test_raw_question_accounting;
        tc "majority vote improves accuracy" `Slow test_majority_vote_improves_accuracy;
        tc "empty input" `Quick test_empty_input;
        tc "votes validation" `Quick test_votes_validation;
        tc "self comparison rejected" `Quick test_self_comparison_rejected;
        tc "is_conflict_free" `Quick test_is_conflict_free;
        tc "cycle resolution exercised" `Quick test_cycle_resolution_flips_some_edge;
      ]
      @ List.map QCheck_alcotest.to_alcotest
          [
            prop_resolve_matches_reference;
            prop_resolve_errors_match_reference;
          ] );
  ]
