module Dag = Crowdmax_graph.Answer_dag
module Scoring = Crowdmax_graph.Scoring
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Allocation = Crowdmax_core.Allocation
module Selection = Crowdmax_selection.Selection
module Ground_truth = Crowdmax_crowd.Ground_truth

type pass_record = {
  pass_index : int;
  extracted : int;
  candidates : int;
  pass_budget : int;
  questions : int;
  rounds : int;
  latency : float;
}

type result = {
  ranking : int list;
  total_latency : float;
  questions_posted : int;
  rounds_run : int;
  passes : pass_record list;
  exact : bool;
}

let min_budget ~elements ~k = elements - 1 + (min k elements - 1)

let true_top_k truth k =
  let order = Ground_truth.sorted_desc truth in
  Array.to_list (Array.sub order 0 (min k (Array.length order)))

(* The elements eligible for the next extraction: never extracted, and
   every direct loss was to an already-extracted element. The true
   next-best always qualifies - it can only ever have lost to true
   betters, all of which are extracted by induction. *)
let next_candidates dag is_extracted =
  let n = Dag.size dag in
  let rec loop acc e =
    if e < 0 then acc
    else begin
      let eligible =
        (not is_extracted.(e))
        && List.for_all
             (fun beater -> is_extracted.(beater))
             (Dag.direct_losses_to dag e)
      in
      loop (if eligible then e :: acc else acc) (e - 1)
    end
  in
  loop [] (n - 1)

let run ?answer rng ~k ~problem ~selection truth =
  if k < 1 then invalid_arg "Topk.run: k < 1";
  let n = Ground_truth.size truth in
  if n <> problem.Problem.elements then
    invalid_arg "Topk.run: ground truth size mismatch";
  let kk = min k n in
  if problem.Problem.budget < min_budget ~elements:n ~k:kk then
    invalid_arg "Topk.run: budget below the top-k minimum";
  let answer =
    match answer with
    | None -> fun a b -> Ground_truth.better truth a b
    | Some f ->
        fun a b ->
          let w = f a b in
          if w <> a && w <> b then
            invalid_arg "Topk.run: answer returned neither element";
          w
  in
  let model = problem.Problem.latency in
  (* one plan cache for every re-plan of every pass (c only shrinks) *)
  let cache = Tdp.Cache.create () in
  let dag = Dag.create n in
  let is_extracted = Array.make n false in
  let remaining_budget = ref problem.Problem.budget in
  let total_latency = ref 0.0 in
  let total_questions = ref 0 in
  let total_rounds = ref 0 in
  let exact = ref true in
  let ranking = ref [] in
  let passes = ref [] in
  for pass = 0 to kk - 1 do
    let pass_start_budget = !remaining_budget in
    let pass_candidates = next_candidates dag is_extracted in
    let survivors = ref (Array.of_list pass_candidates) in
    let pass_questions = ref 0 in
    let pass_rounds = ref 0 in
    let pass_latency = ref 0.0 in
    let remaining_passes = kk - pass in
    (* Even share of what's left, floored at Theorem 1's requirement for
       this candidate set, reserving one question per future pass. *)
    let c = Array.length !survivors in
    let reserve = remaining_passes - 1 in
    let share = max (c - 1) (!remaining_budget / remaining_passes) in
    let pass_budget = max 0 (min share (!remaining_budget - reserve)) in
    let spent () = !pass_questions in
    let stalled = ref false in
    while Array.length !survivors > 1 && not !stalled do
      let c = Array.length !survivors in
      let left = pass_budget - spent () in
      if left < c - 1 then stalled := true
      else begin
        (* Re-plan for the actual pass state and run the plan's first
           round (adaptive within the pass). *)
        let plan =
          Tdp.solve ~cache
            (Problem.create ~elements:c ~budget:left ~latency:model)
        in
        let round_budget =
          match Allocation.round_budgets plan.Tdp.allocation with
          | q :: _ -> q
          | [] -> 0
        in
        if round_budget = 0 then stalled := true
        else begin
          let input =
            {
              Selection.budget = round_budget;
              candidates = !survivors;
              history = dag;
              round_index = !pass_rounds;
              total_rounds =
                !pass_rounds + Allocation.rounds plan.Tdp.allocation;
              carried = [];
            }
          in
          let questions = selection.Selection.select rng input in
          match questions with
          | [] -> stalled := true
          | _ ->
              let losers = Hashtbl.create 16 in
              List.iter
                (fun (a, b) ->
                  let w = answer a b in
                  let l = if w = a then b else a in
                  Dag.add_answer_unchecked dag ~winner:w ~loser:l;
                  Hashtbl.replace losers l ())
                questions;
              let posted = List.length questions in
              survivors :=
                Array.of_list
                  (List.filter
                     (fun e -> not (Hashtbl.mem losers e))
                     (Array.to_list !survivors));
              pass_questions := !pass_questions + posted;
              pass_latency := !pass_latency +. Model.eval model posted;
              incr pass_rounds
        end
      end
    done;
    let chosen =
      match Array.to_list !survivors with
      | [ w ] -> w
      | [] ->
          (* A non-transitive answer set (a noisy cycle) can empty the
             survivor set in one round: every member lost to another
             member, so no one is left standing. Transitive sources
             (the ground-truth default) can never do this — the true
             best of the set never loses — but injected/simulated
             answerers can, so fall back to scoring instead of
             crashing: among the pass's starting candidates (or, if a
             cycle in an earlier pass already emptied eligibility, any
             unextracted element), pick the element with the fewest
             losses, then the most direct wins, then the lowest id.
             Purely a function of the DAG — deterministic. *)
          exact := false;
          let pool =
            match pass_candidates with
            | _ :: _ -> pass_candidates
            | [] ->
                let rec all acc e =
                  if e < 0 then acc
                  else all (if is_extracted.(e) then acc else e :: acc) (e - 1)
                in
                all [] (n - 1)
          in
          let strength e =
            (-Dag.losses dag e, List.length (Dag.direct_wins dag e), -e)
          in
          let best_of a b =
            let (la, wa, ia) = strength a and (lb, wb, ib) = strength b in
            if
              la > lb
              || (la = lb && (wa > wb || (wa = wb && ia > ib)))
            then a
            else b
          in
          (match pool with
          | [] -> assert false (* pass < kk <= n: someone is unextracted *)
          | first :: rest -> List.fold_left best_of first rest)
      | several ->
          (* budget ran dry mid-pass: fall back to the strongest score *)
          exact := false;
          let ranked = Scoring.ranked_candidates dag in
          (match
             List.find_opt
               (fun e -> List.exists (Int.equal e) several)
               ranked
           with
          | Some best -> best
          | None -> List.hd several)
    in
    is_extracted.(chosen) <- true;
    ranking := chosen :: !ranking;
    remaining_budget := !remaining_budget - !pass_questions;
    total_latency := !total_latency +. !pass_latency;
    total_questions := !total_questions + !pass_questions;
    total_rounds := !total_rounds + !pass_rounds;
    passes :=
      {
        pass_index = pass;
        extracted = chosen;
        candidates = c;
        pass_budget = min pass_budget pass_start_budget;
        questions = !pass_questions;
        rounds = !pass_rounds;
        latency = !pass_latency;
      }
      :: !passes
  done;
  {
    ranking = List.rev !ranking;
    total_latency = !total_latency;
    questions_posted = !total_questions;
    rounds_run = !total_rounds;
    passes = List.rev !passes;
    exact = !exact;
  }
