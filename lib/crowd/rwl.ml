open Crowdmax_util

type config = { votes : int; error : Worker.error_model }

let default_config = { votes = 3; error = Worker.Uniform 0.1 }

type tally = {
  raw_questions : int;
  vote_flips : int;
  cycle_edges_flipped : int;
  accuracy : float;
}

type outcome = {
  answers : (int * int) list;
  unanswered : (int * int) list;
  raw_questions : int;
  vote_flips : int;
  cycle_edges_flipped : int;
  accuracy : float;
}

(* Scratch for the resolution kernel, one per domain (like [Tdp]'s Qmin
   table), grown geometrically and never shrunk, so a steady-state call
   allocates little beyond its result lists. [local] maps an element id to its
   compact node number and is all -1 between calls; everything else is
   overwritten before it is read. Node arrays are indexed by compact
   node (at most two per voted question, and at most the truth size);
   [start] holds one extra CSR end offset. *)
type workspace = {
  mutable local : int array;
  (* per voted question, in question order *)
  mutable win : int array;
  mutable lose : int array;
  mutable adj : int array;
  (* per compact node *)
  mutable start : int array;
  mutable next : int array;
  mutable index : int array;
  mutable lowlink : int array;
  mutable comp : int array;
  mutable stack : int array;
  mutable frames : int array;
  mutable score : int array;
  mutable vote_flips : int; (* the vote loop's count, read right after *)
}

let workspace_key =
  Domain.DLS.new_key (fun () ->
      {
        local = [||];
        win = [||];
        lose = [||];
        adj = [||];
        start = [||];
        next = [||];
        index = [||];
        lowlink = [||];
        comp = [||];
        stack = [||];
        frames = [||];
        score = [||];
        vote_flips = 0;
      })

let ensure a need init =
  if Array.length a >= need then a
  else begin
    let cap = ref (max 64 (Array.length a)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    Array.make !cap init
  end

(* The workspace for a call over [questions] questions on a truth of
   [elements] elements. *)
let workspace ~elements ~questions =
  let ws = Domain.DLS.get workspace_key in
  ws.local <- ensure ws.local elements (-1);
  ws.win <- ensure ws.win questions 0;
  ws.lose <- ensure ws.lose questions 0;
  ws.adj <- ensure ws.adj questions 0;
  let nodes = min (2 * questions) elements + 1 in
  ws.start <- ensure ws.start nodes 0;
  ws.next <- ensure ws.next nodes 0;
  ws.index <- ensure ws.index nodes 0;
  ws.lowlink <- ensure ws.lowlink nodes 0;
  ws.comp <- ensure ws.comp nodes 0;
  ws.stack <- ensure ws.stack nodes 0;
  ws.frames <- ensure ws.frames nodes 0;
  ws.score <- ensure ws.score nodes 0;
  ws

(* Cycle resolution shared by both front ends. [ws.win.(i)] beat
   [ws.lose.(i)] on the [i]-th voted question ([i < m]); every id is a
   truth element (the front ends' [Ground_truth.better] calls checked
   that). Inside each strongly connected component of the voted digraph
   the edges are re-oriented by the component-local win/loss score
   (ties to the larger id), which makes the result acyclic; edges
   between components are kept.

   The answers are a pure function of the SCC *partition* and the
   within-component scores, so node numbering and Tarjan's visit order
   are unobservable: nodes are numbered compactly in first-appearance
   order, the successor lists are a CSR over those numbers, and Tarjan
   runs iteratively on it. A visited node not yet in a component is on
   Tarjan's stack, so no separate on-stack flag is kept. *)
let outcome_of ws ~truth ~raw_questions ~vote_flips ~answers m =
  let local = ws.local and win = ws.win and lose = ws.lose in
  let k = ref 0 in
  for i = 0 to m - 1 do
    let w = win.(i) and l = lose.(i) in
    if local.(w) < 0 then begin
      local.(w) <- !k;
      incr k
    end;
    if local.(l) < 0 then begin
      local.(l) <- !k;
      incr k
    end
  done;
  let k = !k in
  (* CSR: [start.(v) .. start.(v+1) - 1] indexes v's successors. *)
  let start = ws.start and next = ws.next and adj = ws.adj in
  Array.fill start 0 (k + 1) 0;
  for i = 0 to m - 1 do
    let v = local.(win.(i)) + 1 in
    start.(v) <- start.(v) + 1
  done;
  for v = 1 to k do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  Array.blit start 0 next 0 k;
  for i = 0 to m - 1 do
    let v = local.(win.(i)) in
    adj.(next.(v)) <- local.(lose.(i));
    next.(v) <- next.(v) + 1
  done;
  (* Tarjan. [next.(v)] is v's unexplored CSR cursor; [frames] is the
     DFS path, at most k deep. *)
  let index = ws.index and lowlink = ws.lowlink and comp = ws.comp in
  let stack = ws.stack and frames = ws.frames in
  Array.blit start 0 next 0 k;
  Array.fill index 0 k (-1);
  Array.fill comp 0 k (-1);
  let counter = ref 0 and sp = ref 0 and n_comp = ref 0 in
  for root = 0 to k - 1 do
    if index.(root) < 0 then begin
      index.(root) <- !counter;
      lowlink.(root) <- !counter;
      incr counter;
      stack.(!sp) <- root;
      incr sp;
      frames.(0) <- root;
      let top = ref 0 in
      while !top >= 0 do
        let v = frames.(!top) in
        let i = next.(v) in
        if i < start.(v + 1) then begin
          next.(v) <- i + 1;
          let w = adj.(i) in
          if index.(w) < 0 then begin
            index.(w) <- !counter;
            lowlink.(w) <- !counter;
            incr counter;
            stack.(!sp) <- w;
            incr sp;
            incr top;
            frames.(!top) <- w
          end
          else if comp.(w) < 0 && index.(w) < lowlink.(v) then
            lowlink.(v) <- index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            let continue_ = ref true in
            while !continue_ do
              decr sp;
              let w = stack.(!sp) in
              comp.(w) <- !n_comp;
              if w = v then continue_ := false
            done;
            incr n_comp
          end;
          decr top;
          if !top >= 0 then begin
            let parent = frames.(!top) in
            if lowlink.(v) < lowlink.(parent) then
              lowlink.(parent) <- lowlink.(v)
          end
        end
      done
    end
  done;
  let score = ws.score in
  Array.fill score 0 k 0;
  for i = 0 to m - 1 do
    let w = local.(win.(i)) and l = local.(lose.(i)) in
    if comp.(w) = comp.(l) then begin
      score.(w) <- score.(w) + 1;
      score.(l) <- score.(l) - 1
    end
  done;
  (* The answers, in voted-question order; correctness is counted on
     the way and [local] is reset to all -1. *)
  let ranks = Ground_truth.ranks truth in
  let flipped = ref 0 and correct = ref 0 in
  for i = 0 to m - 1 do
    let w = win.(i) and l = lose.(i) in
    let cw = local.(w) and cl = local.(l) in
    let keep =
      comp.(cw) <> comp.(cl)
      ||
      let c = Int.compare score.(cw) score.(cl) in
      c > 0 || (c = 0 && w > l)
    in
    if keep then begin
      if ranks.(w) > ranks.(l) then incr correct;
      Pairs.push answers w l
    end
    else begin
      incr flipped;
      if ranks.(l) > ranks.(w) then incr correct;
      Pairs.push answers l w
    end
  done;
  for i = 0 to m - 1 do
    local.(win.(i)) <- -1;
    local.(lose.(i)) <- -1
  done;
  {
    raw_questions;
    vote_flips;
    cycle_edges_flipped = !flipped;
    accuracy =
      (if m = 0 then 1.0 else float_of_int !correct /. float_of_int m);
  }

let check_questions name questions =
  for i = 0 to Pairs.length questions - 1 do
    if Pairs.first questions i = Pairs.second questions i then
      invalid_arg (name ^ ": self-comparison")
  done

(* Validate an optional per-question received-vote vector (deadline
   support): when absent, every question got its full [votes]. *)
let check_received name votes n_questions = function
  | None -> ()
  | Some received ->
      if Array.length received <> n_questions then
        invalid_arg (name ^ ": votes_received length mismatch");
      Array.iter
        (fun v ->
          if v < 0 || v > votes then
            invalid_arg (name ^ ": votes_received out of [0, votes]"))
        received

(* An exact split: award the question by a fair draw rather than the
   historical (biased) award-to-[b]. Only consulted on actual ties, so
   odd full-vote configurations never touch the rng here. *)
let fair_tie rng a b = if Rng.bool rng then a else b [@@alloc_free]

(* Repetition + majority vote per question, in question order, into
   [ws.win]/[ws.lose]; returns the voted count [m] and counts majority
   answers contradicting the truth in [ws.vote_flips]. A raw vote is
   wrong with the model's error probability, which is fixed per
   question, so each vote is one [Rng.bernoulli] — draw for draw
   [Worker.answer] (no draw at p <= 0 or p >= 1) — and an exact split
   then draws [fair_tie].
   [Ground_truth.better] rejects an out-of-range id before the
   question's first draw, as the first [Worker.answer] would; a
   question with no received votes is never looked at, only pushed to
   [unanswered]. Only [Distance_sensitive] depends on the pair
   ([per_pair]); the other models' probability is [fixed_p], computed
   once by the caller. *)
let vote_loop rng cfg ~truth ~received ~fixed_p ~per_pair ws questions
    ~unanswered =
  let votes = cfg.votes in
  let win = ws.win and lose = ws.lose in
  let m = ref 0 in
  ws.vote_flips <- 0;
  for qi = 0 to Pairs.length questions - 1 do
    let a = Pairs.first questions qi and b = Pairs.second questions qi in
    let v =
      if Array.length received = 0 then votes else Array.unsafe_get received qi
    in
    if v = 0 then Pairs.push unanswered a b
    else begin
      let true_winner = Ground_truth.better truth a b in
      let p =
        if per_pair then
          (* out of line: the distance-sensitive model's probability
             comes back as a float across a module boundary *)
          (Worker.error_probability [@alloc_cold]) cfg.error truth a b
        else fixed_p
      in
      let errors = ref 0 in
      for _ = 1 to v do
        if Rng.bernoulli rng p then incr errors
      done;
      let wins_a = if true_winner = a then v - !errors else !errors in
      let winner =
        if 2 * wins_a > v then a
        else if 2 * wins_a < v then b
        else fair_tie rng a b
      in
      if winner <> true_winner then ws.vote_flips <- ws.vote_flips + 1;
      Array.unsafe_set win !m winner;
      Array.unsafe_set lose !m (if winner = a then b else a);
      incr m
    end
  done;
  !m
[@@alloc_free]

let resolve_into ?votes_received rng cfg ~truth questions ~answers ~unanswered =
  let votes = cfg.votes in
  if votes < 1 then invalid_arg "Rwl.resolve: votes < 1";
  check_questions "Rwl.resolve" questions;
  let n_questions = Pairs.length questions in
  check_received "Rwl.resolve" votes n_questions votes_received;
  let ws =
    workspace ~elements:(Ground_truth.size truth) ~questions:n_questions
  in
  let fixed_p, per_pair =
    match cfg.error with
    | Worker.Perfect -> (0.0, false)
    | Worker.Uniform p -> (Float.max 0.0 (Float.min 1.0 p), false)
    | Worker.Distance_sensitive _ -> (0.0, true)
  in
  (* [received] of length 0 stands for "every question got [votes]":
     a question count of 0 makes the two readings agree. *)
  let received = match votes_received with None -> [||] | Some r -> r in
  let m =
    vote_loop rng cfg ~truth ~received ~fixed_p ~per_pair ws questions
      ~unanswered
  in
  outcome_of ws ~truth
    ~raw_questions:(votes * n_questions)
    ~vote_flips:ws.vote_flips ~answers m

let resolve ?votes_received rng cfg ~truth questions =
  let answers = Pairs.create () and unanswered = Pairs.create () in
  let t =
    resolve_into ?votes_received rng cfg ~truth (Pairs.of_list questions)
      ~answers ~unanswered
  in
  {
    answers = Pairs.to_list answers;
    unanswered = Pairs.to_list unanswered;
    raw_questions = t.raw_questions;
    vote_flips = t.vote_flips;
    cycle_edges_flipped = t.cycle_edges_flipped;
    accuracy = t.accuracy;
  }

let is_conflict_free ~n answers =
  let dag = Crowdmax_graph.Answer_dag.create n in
  try
    List.iter
      (fun (winner, loser) ->
        Crowdmax_graph.Answer_dag.add_answer dag ~winner ~loser)
      answers;
    true
  with Crowdmax_graph.Answer_dag.Cycle _ -> false
