module Dag = Crowdmax_graph.Answer_dag

let tc = Alcotest.test_case
let check_int = Alcotest.check Alcotest.int
let check_bool = Alcotest.check Alcotest.bool
let sorted l = List.sort compare l

let test_empty () =
  let d = Dag.create 4 in
  check_int "size" 4 (Dag.size d);
  check_int "answers" 0 (Dag.answer_count d);
  Alcotest.check Alcotest.(list int) "all candidates" [ 0; 1; 2; 3 ]
    (Dag.remaining_candidates d);
  check_bool "not singleton" false (Dag.is_singleton d);
  Alcotest.check Alcotest.(option int) "no winner" None (Dag.winner d)

let test_create_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Answer_dag.create: negative size")
    (fun () -> ignore (Dag.create (-1)))

let test_zero_elements () =
  let d = Dag.create 0 in
  Alcotest.check Alcotest.(list int) "no candidates" [] (Dag.remaining_candidates d)

let test_add_answer () =
  let d = Dag.create 3 in
  Dag.add_answer d ~winner:0 ~loser:1;
  check_bool "direct" true (Dag.beats_directly d 0 1);
  check_bool "not reversed" false (Dag.beats_directly d 1 0);
  check_int "losses of 1" 1 (Dag.losses d 1);
  check_int "losses of 0" 0 (Dag.losses d 0);
  Alcotest.check Alcotest.(list int) "candidates" [ 0; 2 ]
    (Dag.remaining_candidates d)

let test_idempotent () =
  let d = Dag.create 3 in
  Dag.add_answer d ~winner:0 ~loser:1;
  Dag.add_answer d ~winner:0 ~loser:1;
  check_int "one answer" 1 (Dag.answer_count d)

let test_self_comparison () =
  let d = Dag.create 3 in
  Alcotest.check_raises "self" (Invalid_argument "Answer_dag.add_answer: self-comparison")
    (fun () -> Dag.add_answer d ~winner:1 ~loser:1)

let test_out_of_range () =
  let d = Dag.create 3 in
  Alcotest.check_raises "range" (Invalid_argument "Answer_dag: out-of-range element in add_answer")
    (fun () -> Dag.add_answer d ~winner:0 ~loser:3)

let test_cycle_detection () =
  let d = Dag.create 3 in
  Dag.add_answer d ~winner:0 ~loser:1;
  Dag.add_answer d ~winner:1 ~loser:2;
  (* 2 beating 0 closes a transitive cycle *)
  (try
     Dag.add_answer d ~winner:2 ~loser:0;
     Alcotest.fail "expected Cycle"
   with Dag.Cycle (w, l) ->
     check_int "winner in exn" 2 w;
     check_int "loser in exn" 0 l);
  check_int "cycle not recorded" 2 (Dag.answer_count d)

let test_unchecked_skips_cycle_check () =
  let d = Dag.create 3 in
  Dag.add_answer_unchecked d ~winner:0 ~loser:1;
  Dag.add_answer_unchecked d ~winner:1 ~loser:2;
  check_int "two answers" 2 (Dag.answer_count d);
  check_bool "transitive works" true (Dag.beats d 0 2)

let test_beats_transitive () =
  let d = Dag.create 5 in
  Dag.add_answer d ~winner:0 ~loser:1;
  Dag.add_answer d ~winner:1 ~loser:2;
  Dag.add_answer d ~winner:2 ~loser:3;
  check_bool "chain" true (Dag.beats d 0 3);
  check_bool "not self" false (Dag.beats d 0 0);
  check_bool "unrelated" false (Dag.beats d 0 4);
  check_bool "no reverse" false (Dag.beats d 3 0)

let test_singleton_and_winner () =
  let d = Dag.create 3 in
  Dag.add_answer d ~winner:2 ~loser:0;
  Dag.add_answer d ~winner:2 ~loser:1;
  check_bool "singleton" true (Dag.is_singleton d);
  Alcotest.check Alcotest.(option int) "winner" (Some 2) (Dag.winner d)

let test_copy_independent () =
  let d = Dag.create 3 in
  Dag.add_answer d ~winner:0 ~loser:1;
  let d' = Dag.copy d in
  Dag.add_answer d' ~winner:0 ~loser:2;
  check_int "copy has 2" 2 (Dag.answer_count d');
  check_int "original has 1" 1 (Dag.answer_count d)

let test_answers_roundtrip () =
  let d = Dag.create 4 in
  Dag.add_answer d ~winner:3 ~loser:0;
  Dag.add_answer d ~winner:3 ~loser:1;
  Dag.add_answer d ~winner:1 ~loser:2;
  Alcotest.check
    Alcotest.(list (pair int int))
    "answers" (sorted [ (3, 0); (3, 1); (1, 2) ])
    (sorted (Dag.answers d))

let test_direct_lists () =
  let d = Dag.create 4 in
  Dag.add_answer d ~winner:0 ~loser:1;
  Dag.add_answer d ~winner:0 ~loser:2;
  Dag.add_answer d ~winner:3 ~loser:0;
  Alcotest.check Alcotest.(list int) "wins of 0" [ 1; 2 ]
    (sorted (Dag.direct_wins d 0));
  Alcotest.check Alcotest.(list int) "losses-to of 0" [ 3 ]
    (sorted (Dag.direct_losses_to d 0))

(* Figure 7(a) of the paper: answers {(a>b),(c>b),(d>c),(d>a),(d>b)}
   over a=0, b=1, c=2, d=3; RC must be {d}. *)
let test_paper_figure7 () =
  let d = Dag.create 4 in
  Dag.add_answer d ~winner:0 ~loser:1;
  Dag.add_answer d ~winner:2 ~loser:1;
  Dag.add_answer d ~winner:3 ~loser:2;
  Dag.add_answer d ~winner:3 ~loser:0;
  Dag.add_answer d ~winner:3 ~loser:1;
  Alcotest.check Alcotest.(list int) "RC = {d}" [ 3 ]
    (Dag.remaining_candidates d)

let test_topological_order () =
  let d = Dag.create 4 in
  Dag.add_answer d ~winner:3 ~loser:2;
  Dag.add_answer d ~winner:2 ~loser:1;
  Dag.add_answer d ~winner:1 ~loser:0;
  let order = Dag.topological_order d in
  let pos = Array.make 4 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  check_bool "winners first" true (pos.(3) < pos.(2) && pos.(2) < pos.(1) && pos.(1) < pos.(0))

let test_transitive_win_counts () =
  let d = Dag.create 5 in
  (* 4 beats 3 beats {1,2}; 0 isolated *)
  Dag.add_answer d ~winner:4 ~loser:3;
  Dag.add_answer d ~winner:3 ~loser:1;
  Dag.add_answer d ~winner:3 ~loser:2;
  let counts = Dag.transitive_win_counts d in
  check_int "4 beats 3 transitively" 3 counts.(4);
  check_int "3 beats 2" 2 counts.(3);
  check_int "leaf" 0 counts.(1);
  check_int "isolated" 0 counts.(0)

let test_transitive_win_counts_diamond () =
  (* 0 -> {1,2} -> 3: 3 must be counted once for 0 *)
  let d = Dag.create 4 in
  Dag.add_answer d ~winner:0 ~loser:1;
  Dag.add_answer d ~winner:0 ~loser:2;
  Dag.add_answer d ~winner:1 ~loser:3;
  Dag.add_answer d ~winner:2 ~loser:3;
  let counts = Dag.transitive_win_counts d in
  check_int "diamond dedup" 3 counts.(0)

let test_large_bitset_boundary () =
  (* exercise the 63-bit word boundary in transitive_win_counts *)
  let n = 130 in
  let d = Dag.create n in
  for i = 0 to n - 2 do
    Dag.add_answer_unchecked d ~winner:i ~loser:(i + 1)
  done;
  let counts = Dag.transitive_win_counts d in
  check_int "head beats everyone" (n - 1) counts.(0);
  check_int "middle" (n - 1 - 64) counts.(64);
  check_int "tail" 0 counts.(n - 1)

(* --- reset: a recycled DAG is indistinguishable from a fresh one ------- *)

module Q = QCheck
module Rng = Crowdmax_util.Rng
module Scoring = Crowdmax_graph.Scoring

(* Conflict-free answers for one step: pairs answered by a hidden total
   order drawn from [seed], so they can never close a cycle. *)
let add_ranked_answers dag (n, _, seed) =
  let rng = Rng.create seed in
  let ranks = Rng.permutation rng n in
  let pairs = if n < 2 then 0 else Rng.int rng ((3 * n) + 1) in
  for _ = 1 to pairs do
    let a = Rng.int rng n in
    let b = Rng.int rng n in
    if a <> b then begin
      let winner, loser = if ranks.(a) > ranks.(b) then (a, b) else (b, a) in
      Dag.add_answer_unchecked dag ~winner ~loser
    end
  done

let same_dag a b =
  let all = List.init (Dag.size b) Fun.id in
  Dag.size a = Dag.size b
  && Dag.answer_count a = Dag.answer_count b
  && Dag.candidate_count a = Dag.candidate_count b
  && Dag.candidates a = Dag.candidates b
  && Dag.remaining_candidates a = Dag.remaining_candidates b
  && Dag.answers a = Dag.answers b
  && Dag.topological_order a = Dag.topological_order b
  && Dag.transitive_win_counts a = Dag.transitive_win_counts b
  && Scoring.ranked_candidates a = Scoring.ranked_candidates b
  && List.for_all
       (fun x ->
         Dag.losses a x = Dag.losses b x
         && List.for_all
              (fun y -> Dag.beats_directly a x y = Dag.beats_directly b x y)
              all)
       all

(* Steps of (n, edge_capacity, seed); sizes straddle the row-stride
   changes at 32 and reach 0, so sequences grow and shrink the stride. *)
let reset_steps =
  let step =
    Q.Gen.(
      oneof [ oneofl [ 0; 1; 31; 32; 33 ]; int_range 0 70 ] >>= fun n ->
      opt (int_range 0 200) >>= fun edge_capacity ->
      int_range 0 1_000_000 >>= fun seed -> return (n, edge_capacity, seed))
  in
  Q.make
    ~print:
      (Q.Print.list (fun (n, cap, seed) ->
           Printf.sprintf "(n=%d, cap=%s, seed=%d)" n
             (Q.Print.option string_of_int cap)
             seed))
    Q.Gen.(list_size (int_range 1 8) step)

(* [same_dag] leaves a ranking cache on the recycled DAG before every
   reset, so each step also checks that reset drops it. *)
let prop_reset_equals_fresh =
  Q.Test.make ~count:200 ~name:"reset DAG = fresh DAG over size sequences"
    reset_steps (fun steps ->
      let recycled = Dag.create 0 in
      List.for_all
        (fun ((n, edge_capacity, _) as step) ->
          Dag.reset ?edge_capacity recycled n;
          let fresh = Dag.create ?edge_capacity n in
          add_ranked_answers recycled step;
          add_ranked_answers fresh step;
          Dag.check_invariants recycled;
          let copy = Dag.copy recycled in
          Dag.check_invariants copy;
          same_dag recycled fresh && same_dag copy fresh)
        steps)

let test_reset_drops_ranking_cache () =
  (* Same size, same answer count, different graph: a ranking cache keyed
     on the answer count would still match after the reset. *)
  let d = Dag.create 3 in
  Dag.add_answer d ~winner:0 ~loser:1;
  Alcotest.check Alcotest.(list int) "before" [ 0; 2 ]
    (Scoring.ranked_candidates d);
  Dag.reset d 3;
  Dag.add_answer d ~winner:2 ~loser:1;
  Alcotest.check Alcotest.(list int) "after" [ 2; 0 ]
    (Scoring.ranked_candidates d);
  Alcotest.check_raises "negative"
    (Invalid_argument "Answer_dag.reset: negative size") (fun () ->
      Dag.reset d (-1))

let suite =
  [
    ( "answer_dag",
      [
        tc "empty" `Quick test_empty;
        tc "create rejects negative" `Quick test_create_rejects_negative;
        tc "zero elements" `Quick test_zero_elements;
        tc "add answer" `Quick test_add_answer;
        tc "idempotent" `Quick test_idempotent;
        tc "self comparison" `Quick test_self_comparison;
        tc "out of range" `Quick test_out_of_range;
        tc "cycle detection" `Quick test_cycle_detection;
        tc "unchecked add" `Quick test_unchecked_skips_cycle_check;
        tc "transitive beats" `Quick test_beats_transitive;
        tc "singleton & winner" `Quick test_singleton_and_winner;
        tc "copy independent" `Quick test_copy_independent;
        tc "answers roundtrip" `Quick test_answers_roundtrip;
        tc "direct lists" `Quick test_direct_lists;
        tc "paper Fig 7(a)" `Quick test_paper_figure7;
        tc "topological order" `Quick test_topological_order;
        tc "transitive win counts" `Quick test_transitive_win_counts;
        tc "win counts dedup (diamond)" `Quick test_transitive_win_counts_diamond;
        tc "bitset word boundary" `Quick test_large_bitset_boundary;
        tc "reset drops ranking cache" `Quick test_reset_drops_ranking_cache;
        QCheck_alcotest.to_alcotest prop_reset_equals_fresh;
      ] );
  ]
