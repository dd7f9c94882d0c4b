(* The seed tDP solvers, kept out of the library as test oracles and as
   the bench's top-down vs bottom-up ablation. Each returns a
   [Tdp.solution] for the same problem [Tdp.solve] takes; the
   equivalence tests pin that the answers agree. *)

open Crowdmax_util
module Model = Crowdmax_latency.Model
module T = Crowdmax_tournament.Tournament
module Allocation = Crowdmax_core.Allocation
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp

let clamp_budget c q = min q (Ints.choose2 c)

let checked_latency_of fn latency q =
  let l = Model.eval latency q in
  if not (Float.is_finite l) then
    invalid_arg
      (Printf.sprintf "Tdp_reference.%s: L(%d) = %g is not finite" fn q l);
  l

let solution sequence states_visited latency =
  let allocation = Allocation.of_count_sequence sequence in
  {
    Tdp.sequence;
    allocation;
    latency;
    questions_used = Allocation.questions_total allocation;
    states_visited;
  }

(* State key: candidates * clamped remaining budget. *)
module Memo = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = a1 = a2 && b1 = b2
  let hash (a, b) = (a * 1_000_003) + b
end)

let unconstrained_table_of latency_of c0 =
  let ub = Array.make (c0 + 1) 0.0 in
  let ub_next = Array.make (c0 + 1) 1 in
  for c = 2 to c0 do
    let best = ref infinity and best_next = ref 1 in
    for c' = 1 to c - 1 do
      let cand = latency_of (T.questions c c') +. ub.(c') in
      if cand < !best then begin
        best := cand;
        best_next := c'
      end
    done;
    ub.(c) <- !best;
    ub_next.(c) <- !best_next
  done;
  (ub, ub_next)

let unconstrained_table model c0 =
  unconstrained_table_of (checked_latency_of "unconstrained_table" model) c0

let solve_hashtbl (problem : Problem.t) =
  let latency_of = checked_latency_of "solve_hashtbl" problem.Problem.latency in
  let c0 = problem.Problem.elements in
  let b = problem.Problem.budget in
  let ub, ub_next = unconstrained_table_of latency_of c0 in
  (* Memo keyed by the boxed state; only budget-constrained states
     (q < choose2 c) are memoized, the rest resolve through [ub]. *)
  let memo : (float * int) Memo.t = Memo.create 4096 in
  let rec ol c q =
    if c = 1 then (0.0, 1)
    else if q >= Ints.choose2 c then (ub.(c), ub_next.(c))
    else
      match Memo.find_opt memo (c, q) with
      | Some r -> r
      | None ->
          let best = ref infinity in
          let best_next = ref 0 in
          for c' = 1 to c - 1 do
            let qq = T.questions c c' in
            let rem = q - qq in
            if rem >= c' - 1 then begin
              let round = latency_of qq in
              if round +. ub.(c') < !best then begin
                let tail, _ = ol c' (clamp_budget c' rem) in
                let total = round +. tail in
                if total < !best then begin
                  best := total;
                  best_next := c'
                end
              end
            end
          done;
          let r = (!best, !best_next) in
          Memo.add memo (c, q) r;
          r
  in
  let latency, _ = ol c0 (clamp_budget c0 b) in
  let rec rebuild c q acc =
    if c = 1 then List.rev acc
    else begin
      let _, next = ol c q in
      let qq = T.questions c next in
      rebuild next (clamp_budget next (q - qq)) (next :: acc)
    end
  in
  solution (rebuild c0 (clamp_budget c0 b) [ c0 ]) (Memo.length memo) latency

let solve_bottom_up (problem : Problem.t) =
  let latency_of = checked_latency_of "solve_bottom_up" problem.Problem.latency in
  let c0 = problem.Problem.elements in
  let b = clamp_budget c0 problem.Problem.budget in
  (* table.(c).(q): optimal latency and best next count from c candidates
     with q remaining questions. Row c only needs q up to choose2 c, but
     a rectangular table keeps the reference implementation plain. *)
  let table = Array.make_matrix (c0 + 1) (b + 1) (infinity, 0) in
  for q = 0 to b do
    table.(1).(q) <- (0.0, 1)
  done;
  let states = ref (b + 1) in
  for c = 2 to c0 do
    for q = c - 1 to b do
      let best = ref infinity and best_next = ref 0 in
      for c' = 1 to c - 1 do
        let qq = T.questions c c' in
        let rem = q - qq in
        if rem >= c' - 1 then begin
          let tail, _ = table.(c').(min rem b) in
          let total = latency_of qq +. tail in
          if total < !best then begin
            best := total;
            best_next := c'
          end
        end
      done;
      table.(c).(q) <- (!best, !best_next);
      incr states
    done
  done;
  let latency, _ = table.(c0).(b) in
  let rec rebuild c q acc =
    if c = 1 then List.rev acc
    else begin
      let _, next = table.(c).(q) in
      let qq = T.questions c next in
      rebuild next (min (q - qq) b) (next :: acc)
    end
  in
  solution (rebuild c0 b [ c0 ]) !states latency

let brute_force (problem : Problem.t) =
  if problem.Problem.elements > 14 then
    invalid_arg "Tdp_reference.brute_force: instance too large";
  let latency_of = checked_latency_of "brute_force" problem.Problem.latency in
  let best = ref None in
  let states = ref 0 in
  (* Enumerate every strictly decreasing sequence ending at 1 within the
     budget; [acc] holds the reversed prefix. *)
  let rec go c budget latency acc =
    incr states;
    if c = 1 then begin
      match !best with
      | Some (l, _) when l <= latency -> ()
      | _ -> best := Some (latency, List.rev acc)
    end
    else
      for c' = c - 1 downto 1 do
        let qq = T.questions c c' in
        if budget - qq >= c' - 1 then
          go c' (budget - qq) (latency +. latency_of qq) (c' :: acc)
      done
  in
  go problem.Problem.elements problem.Problem.budget 0.0
    [ problem.Problem.elements ];
  match !best with
  | None -> assert false (* Problem.create guarantees feasibility *)
  | Some (latency, sequence) -> solution sequence !states latency
