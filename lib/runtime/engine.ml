open Crowdmax_util
module Clock = Crowdmax_obs.Clock
module Metrics = Crowdmax_obs.Metrics
module Dag = Crowdmax_graph.Answer_dag
module Scoring = Crowdmax_graph.Scoring
module Model = Crowdmax_latency.Model
module Allocation = Crowdmax_core.Allocation
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Selection = Crowdmax_selection.Selection
module Ground_truth = Crowdmax_crowd.Ground_truth
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl

type answer_source =
  | Oracle
  | Simulated of { platform : Platform.t; rwl : Rwl.config }

type deadline_policy = Wait_all | Fixed of float | Quantile of float
type straggler_policy = Drop | Carry_forward | Reissue of int

type config = {
  allocation : Allocation.t;
  selection : Selection.t;
  latency_model : Model.t;
  source : answer_source;
  pad_to_round_budget : bool;
  deadline : deadline_policy;
  straggler : straggler_policy;
}

let check_source ~caller = function
  | Oracle -> ()
  | Simulated { rwl = { Rwl.votes; _ }; _ } ->
      if votes < 1 then invalid_arg (caller ^ ": votes < 1")

let config ?(source = Oracle) ?(pad_to_round_budget = true)
    ?(deadline = Wait_all) ?(straggler = Drop) ~allocation ~selection
    ~latency_model () =
  check_source ~caller:"Engine.config" source;
  {
    allocation;
    selection;
    latency_model;
    source;
    pad_to_round_budget;
    deadline;
    straggler;
  }

let plan_config ?metrics ?cache ?source ?pad_to_round_budget ?deadline
    ?straggler ~problem ~selection () =
  let sol = Tdp.solve ?metrics ?cache problem in
  config ?source ?pad_to_round_budget ?deadline ?straggler
    ~allocation:sol.Tdp.allocation ~selection
    ~latency_model:problem.Problem.latency ()

let check_deadline ~caller = function
  | Wait_all -> ()
  | Fixed d ->
      if Float.is_nan d || d <= 0.0 then
        invalid_arg (caller ^ ": Fixed deadline must be > 0")
  | Quantile p ->
      if Float.is_nan p || p <= 0.0 || p > 1.0 then
        invalid_arg (caller ^ ": Quantile must be in (0, 1]")

let check_policies cfg =
  check_source ~caller:"Engine.run" cfg.source;
  check_deadline ~caller:"Engine.run" cfg.deadline;
  match cfg.straggler with
  | Reissue n ->
      if n < 0 then invalid_arg "Engine.run: Reissue retry cap < 0"
  | Drop | Carry_forward -> ()

type round_record = {
  round_index : int;
  round_budget : int;
  distinct_questions : int;
  padded_questions : int;
  candidates_before : int;
  candidates_after : int;
  round_latency : float;
  unanswered_questions : int;
  reissued_questions : int;
  deadline_hit : bool;
}

type result = {
  chosen : int;
  correct : bool;
  singleton : bool;
  rounds_run : int;
  questions_posted : int;
  total_latency : float;
  trace : round_record list;
}

(* The round deadline, if the policy imposes one. [Quantile p] waits
   until the latency model's predicted completion time of the
   ceil(p * posted)-th posted question — the modeled p-th completion
   time — instead of the (tail-dominated) last one.

   Unit convention (pinned across the whole runtime): L(q) takes q in
   {e distinct posted questions}. The planner's budgets, the Oracle
   path's [Model.eval latency_model posted], and the adaptive refit
   window's [batch_size = posted] all use that unit; the [votes ×]
   repetition a simulated source posts is a property of the answering
   environment, absorbed into the fitted model parameters exactly like
   worker arrival rates are. Evaluating the deadline at raw
   [votes * posted] (as this function once did) mixed a second unit
   into the same model: with votes = 3 the quantile deadline was priced
   at L(3q) while every other consumer asked about L(q), so refit-tuned
   models silently tripled the wait the policy granted. *)
let round_deadline ~deadline ~latency_model ~posted =
  match deadline with
  | Wait_all -> None
  | Fixed d -> Some d
  | Quantile p ->
      let k = max 1 (int_of_float (Float.ceil (p *. float_of_int posted))) in
      Some (Model.eval latency_model k)

type round_outcome = {
  round_seconds : float;
  observed_seconds : float;
  answered : int;
  unanswered : (int * int) list;
  round_deadline_hit : bool;
}

(* Raw-slot layout under a deadline: repetition [i] of the raw batch
   belongs to posted slot [i mod posted] — repetitions interleave
   across the batch, so early completions spread over all questions
   instead of finishing the first few in full. Slots past the counted
   (distinct) questions are padding and carry no information. *)
let count_vote counts ~posted idx =
  let slot = idx mod posted in
  if slot < Array.length counts then counts.(slot) <- counts.(slot) + 1

let add_answers dag answers =
  for i = 0 to Pairs.length answers - 1 do
    Dag.add_answer_unchecked dag ~winner:(Pairs.first answers i)
      ~loser:(Pairs.second answers i)
  done
[@@alloc_free]

(* The oracle's answer loop: each question straight into the DAG. *)
let answer_oracle (ranks : int array) dag questions =
  for i = 0 to Pairs.length questions - 1 do
    let a = Pairs.first questions i and b = Pairs.second questions i in
    if ranks.(a) > ranks.(b) then Dag.add_answer_unchecked dag ~winner:a ~loser:b
    else Dag.add_answer_unchecked dag ~winner:b ~loser:a
  done
[@@alloc_free]

let full_round latency ~answered =
  {
    round_seconds = latency;
    observed_seconds = latency;
    answered;
    unanswered = [];
    round_deadline_hit = false;
  }

(* The RWL's answer and straggler buffers, one pair per domain: a round
   fills them, folds the answers into its DAG and copies the stragglers
   out before it returns. *)
type vote_scratch = { answers : Pairs.t; stragglers : Pairs.t }

let vote_key =
  Domain.DLS.new_key (fun () ->
      { answers = Pairs.create (); stragglers = Pairs.create () })

(* Resolve the round's votes and record the answers in [dag]. *)
let resolve_into_dag ?votes_received rng rwl ~truth dag questions =
  let s = Domain.DLS.get vote_key in
  Pairs.clear s.answers;
  Pairs.clear s.stragglers;
  ignore
    (Rwl.resolve_into ?votes_received rng rwl ~truth questions
       ~answers:s.answers ~unanswered:s.stragglers
      : Rwl.tally);
  add_answers dag s.answers;
  s

let resolve_votes rng rwl ~truth dag questions counts (report : Platform.report)
    =
  let s = resolve_into_dag ~votes_received:counts rng rwl ~truth dag questions in
  {
    round_seconds = report.latency;
    observed_seconds = report.last_completion;
    answered = Pairs.length s.answers;
    unanswered = Pairs.to_list s.stragglers;
    round_deadline_hit = report.deadline_hit;
  }

(* Answer a round's questions, record them in [dag], and return a
   {!round_outcome} — the answer count feeds the consensus-resolutions
   metric without recomputation at the call site, and the observed
   seconds feed the adaptive runtime's L(q) estimator. RWL / oracle
   answers are conflict-free by contract, so the per-edge transitive
   cycle check would be pure overhead. Every path reads the questions
   from the buffer by index; the oracle writes each answer straight
   into the DAG, the RWL's go through the per-domain vote buffers.

   Draw-order contract: under [Wait_all] the rng is consumed exactly as
   it always was — RWL votes first, then the platform's event stream —
   so aggregates stay bit-identical to the pre-deadline engine. A
   finite deadline needs the platform's completion report *before*
   votes can be drawn (only received repetitions count), so that path
   runs platform-first; it is a distinct, documented draw schedule. *)
let answer_pairs ?scratch ?(metrics = Metrics.disabled) rng ~source ~deadline
    ~latency_model truth dag questions ~posted =
  let distinct = Pairs.length questions in
  match source with
  | Oracle ->
      (* Answers are instant and error-free; latency is purely the
         model's, so deadline/straggler policies are no-ops here. *)
      answer_oracle (Ground_truth.ranks truth) dag questions;
      full_round (Model.eval latency_model posted) ~answered:distinct
  | Simulated { platform; rwl } -> (
      let votes = rwl.Rwl.votes in
      match round_deadline ~deadline ~latency_model ~posted with
      | None ->
          let s = resolve_into_dag rng rwl ~truth dag questions in
          (* Latency: all raw repetitions of all posted questions
             (padding included) go to the platform as one batch. *)
          let latency =
            Platform.batch_latency ~metrics ?scratch platform rng
              (votes * posted)
          in
          full_round latency ~answered:(Pairs.length s.answers)
      | Some deadline ->
          let counts = Array.make distinct 0 in
          let report =
            Platform.simulate ~deadline ~metrics ?scratch platform rng
              (votes * posted) ~on_complete:(fun idx _time ->
                count_vote counts ~posted idx)
          in
          resolve_votes rng rwl ~truth dag questions counts report)

let answer_round ?scratch ?metrics rng ~source ~deadline ~latency_model truth
    dag questions ~distinct:(_ : int) ~posted =
  answer_pairs ?scratch ?metrics rng ~source ~deadline ~latency_model truth dag
    (Pairs.of_list questions) ~posted

(* Split off the first [k] elements (all of them if fewer). *)
let rec take_at_most k = function
  | [] -> ([], [])
  | x :: rest when k > 0 ->
      let taken, dropped = take_at_most (k - 1) rest in
      (x :: taken, dropped)
  | rest -> ([], rest)

let pair_eq (a, b) (c, d) = a = c && b = d

(* Drop the selector's re-picks of carried pairs (either orientation)
   from [questions], whose first [carried] pairs are the carried ones;
   the carried copies stay first. Pairs that are not two distinct ids
   of the universe [0, n) are never probed: the answer step rejects
   them. *)
let drop_carried_repicks questions ~carried ~n =
  let valid a b = a <> b && a >= 0 && a < n && b >= 0 && b < n in
  let set = Pair_set.create ~expected:carried n in
  for i = 0 to carried - 1 do
    let a = Pairs.first questions i and b = Pairs.second questions i in
    if valid a b then ignore (Pair_set.add set a b : bool)
  done;
  let kept = ref carried in
  for i = carried to Pairs.length questions - 1 do
    let a = Pairs.first questions i and b = Pairs.second questions i in
    if not (valid a b && Pair_set.mem set a b) then begin
      Pairs.set questions !kept a b;
      incr kept
    end
  done;
  Pairs.truncate questions !kept

module Query = struct
  type round = {
    budget : int;
    candidates : int;
    questions : Pairs.t; (* the query's buffer, valid until its next select *)
    distinct : int;
    padded : int;
    carried : ((int * int) * int) list;
    deferred : ((int * int) * int) list;
  }

  type t = {
    truth : Ground_truth.t;
    dag : Dag.t;
    pairs : Pairs.t; (* every round's questions, carried ones first *)
    mutable spent : bool; (* [finish] ran; [dag] belongs to the pool *)
    selection : Selection.t;
    span : Metrics.span;
    pad : bool;
    straggler : straggler_policy;
    mutable remaining : int;
    mutable rounds : int;
    mutable questions : int;
    mutable latency : float;
    mutable deadline_hits : int;
    mutable trace : round_record list;
    (* Straggler queue: questions cut off with zero received votes, as
       [(pair, remaining reissues)], oldest first. Always empty under
       [Wait_all] (nothing is ever cut off) and under [Drop]. *)
    mutable pending : ((int * int) * int) list;
  }

  (* Finished queries hand their DAG and question buffer to a
     per-domain free list, and [create] resets a DAG instead of
     allocating an n × ⌈n/32⌉ bitset and growing fresh edge pools and
     pair buffers per query. A domain keeps at most [pool_cap] of them —
     enough for a fleet of 8 concurrent queries — so what it retains is
     bounded by its peak number of live queries, whatever the number of
     runs. A query that raises drops its storage. *)
  type recycled = { r_dag : Dag.t; r_pairs : Pairs.t }

  let pool_cap = 8
  let pool_key = Domain.DLS.new_key (fun () -> Stack.create ())
  let pooled () = Stack.length (Domain.DLS.get pool_key)

  let create ?edge_capacity
      ?(span = Metrics.span Metrics.disabled ~section:"" "") ?(pad = false)
      ?(straggler = Drop) ~selection ~budget truth =
    let n = Ground_truth.size truth in
    let dag, pairs =
      match Stack.pop_opt (Domain.DLS.get pool_key) with
      | Some { r_dag; r_pairs } ->
          Dag.reset ?edge_capacity r_dag n;
          (r_dag, r_pairs)
      | None -> (Dag.create ?edge_capacity n, Pairs.create ())
    in
    {
      truth;
      dag;
      pairs;
      spent = false;
      selection;
      span;
      pad;
      straggler;
      remaining = budget;
      rounds = 0;
      questions = 0;
      latency = 0.0;
      deadline_hits = 0;
      trace = [];
      pending = [];
    }

  (* The DAG of a finished query may already serve another one. *)
  let live_dag q ~caller =
    if q.spent then invalid_arg ("Engine.Query." ^ caller ^ ": query finished");
    q.dag

  let truth q = q.truth
  let dag q = live_dag q ~caller:"dag"
  let rounds q = q.rounds
  let latency q = q.latency
  let deadline_hits q = q.deadline_hits

  let active q =
    let c = Dag.candidate_count (live_dag q ~caller:"active") in
    c > 1 && q.remaining >= c - 1

  let replan ~cache q latency =
    let dag = live_dag q ~caller:"replan" in
    if not (active q) then None
    else
      let plan =
        Tdp.solve ~cache
          (Problem.create
             ~elements:(Dag.candidate_count dag)
             ~budget:q.remaining ~latency)
      in
      let budget =
        match Allocation.round_budgets plan.Tdp.allocation with
        | b :: _ -> min b q.remaining
        | [] -> 0
      in
      Some (budget, q.rounds + Allocation.rounds plan.Tdp.allocation)

  let live dag ((a, b), _) = Dag.losses dag a = 0 && Dag.losses dag b = 0

  let select q rng ~budget ~horizon =
    let dag = live_dag q ~caller:"select" in
    (* Carried stragglers go out first, consuming round budget before
       the selector sees it. Pairs whose elements lost meanwhile are
       dead — comparing them again cannot change the RC set — so they
       must never reach [take_at_most]: a dead pair that consumed a
       budget slot would crowd out a live selector question. [absorb]
       already prunes the queue; this filter restates the invariant at
       the consume site so correctness never rests on that alone. *)
    let carried, deferred =
      take_at_most budget (List.filter (live dag) q.pending)
    in
    let questions = q.pairs in
    Pairs.clear questions;
    List.iter (fun ((a, b), _) -> Pairs.push questions a b) carried;
    let n_carried = Pairs.length questions in
    let sel_budget = budget - n_carried in
    if sel_budget <> 0 then begin
      let input =
        {
          Selection.budget = sel_budget;
          candidates = Dag.candidates dag;
          history = dag;
          round_index = q.rounds;
          total_rounds = horizon;
          carried = List.map fst carried;
        }
      in
      Metrics.time q.span (fun () ->
          q.selection.Selection.fill rng input questions);
      (* A selector may independently re-pick a carried pair; keep the
         carried copy only. *)
      if n_carried > 0 then
        drop_carried_repicks questions ~carried:n_carried ~n:(Dag.size dag)
    end;
    let distinct = Pairs.length questions in
    let padded = if q.pad && distinct < budget then budget - distinct else 0 in
    {
      budget;
      candidates = Dag.candidate_count dag;
      questions;
      distinct;
      padded;
      carried;
      deferred;
    }

  let questions (r : round) = r.questions
  let posted r = r.distinct + r.padded

  let absorb q r o =
    let dag = live_dag q ~caller:"absorb" in
    let posted = posted r in
    q.latency <- q.latency +. o.round_seconds;
    q.questions <- q.questions + posted;
    q.remaining <- q.remaining - posted;
    if o.round_deadline_hit then q.deadline_hits <- q.deadline_hits + 1;
    (* Straggler bookkeeping: a reposted pair spent one reissue; a
       freshly cut-off pair gets the policy's full allowance.
       Invariant: [pending] holds only pairs of still-live candidates
       at every round boundary — this round's answers may have
       eliminated an element of a deferred or freshly cut-off pair, so
       prune against the post-round DAG before queueing. *)
    let reissues_left pair =
      match List.find_opt (fun (p, _) -> pair_eq p pair) r.carried with
      | Some (_, n) -> if n = max_int then max_int else n - 1
      | None -> (
          match q.straggler with
          | Drop -> 0
          | Carry_forward -> max_int
          | Reissue cap -> cap)
    in
    q.pending <-
      List.filter (live dag)
        (r.deferred
        @ List.filter_map
            (fun pair ->
              let n = reissues_left pair in
              if n > 0 then Some (pair, n) else None)
            o.unanswered);
    let record =
      {
        round_index = q.rounds;
        round_budget = r.budget;
        distinct_questions = r.distinct;
        padded_questions = r.padded;
        candidates_before = r.candidates;
        candidates_after = Dag.candidate_count dag;
        round_latency = o.round_seconds;
        unanswered_questions = List.length o.unanswered;
        reissued_questions = List.length r.carried;
        deadline_hit = o.round_deadline_hit;
      }
    in
    q.trace <- record :: q.trace;
    q.rounds <- q.rounds + 1;
    record

  let finish q =
    let dag = live_dag q ~caller:"finish" in
    let singleton = Dag.is_singleton dag in
    let chosen =
      match Dag.winner dag with
      | Some w -> w
      | None -> (
          match Scoring.ranked_candidates dag with
          | best :: _ -> best
          | [] -> 0)
    in
    q.spent <- true;
    let pool = Domain.DLS.get pool_key in
    if Stack.length pool < pool_cap then
      Stack.push { r_dag = dag; r_pairs = q.pairs } pool;
    {
      chosen;
      correct = chosen = Ground_truth.max_element q.truth;
      singleton;
      rounds_run = q.rounds;
      questions_posted = q.questions;
      total_latency = q.latency;
      trace = List.rev q.trace;
    }
end

(* Fixed simulated-round-latency buckets (seconds), sized for the
   paper's platform scale (rounds cost hundreds to a few thousand
   seconds). Fixed bounds keep the exported schema stable. *)
let round_latency_bucket_spec =
  Metrics.bucket_spec [| 120.0; 180.0; 240.0; 300.0; 420.0; 600.0; 900.0; 1500.0; 3600.0 |]

(* Engine instruments. Every value recorded is a simulated quantity
   (question counts, simulated latencies) except [selector_seconds],
   the lone real-time span — so the engine section minus its spans is
   deterministic given the seed. Recording is a no-op branch when the
   registry is disabled; the golden hex tests pin the disabled path
   bit-identical to the historical engine.

   The handles live in a record so replication loops can register once
   per registry instead of once per run: handles survive
   [Metrics.reset], and instrument lookup is a measurable share of the
   per-run observability cost on cheap (oracle) configurations. *)
type instruments = {
  i_runs : Metrics.counter;
  i_rounds : Metrics.counter;
  i_posted : Metrics.counter;
  i_distinct : Metrics.counter;
  i_padded : Metrics.counter;
  i_unanswered : Metrics.counter;
  i_reissued : Metrics.counter;
  i_consensus : Metrics.counter;
  i_deadline_hits : Metrics.counter;
  i_round_latency : Metrics.histogram;
  i_sel_span : Metrics.span;
}

let make_instruments metrics =
  {
    i_runs = Metrics.counter metrics ~section:"engine" "runs";
    i_rounds = Metrics.counter metrics ~section:"engine" "rounds_run";
    i_posted = Metrics.counter metrics ~section:"engine" "questions_posted";
    i_distinct = Metrics.counter metrics ~section:"engine" "questions_distinct";
    i_padded = Metrics.counter metrics ~section:"engine" "questions_padded";
    i_unanswered =
      Metrics.counter metrics ~section:"engine" "questions_unanswered";
    i_reissued = Metrics.counter metrics ~section:"engine" "questions_reissued";
    i_consensus =
      Metrics.counter metrics ~section:"engine" "consensus_resolutions";
    i_deadline_hits = Metrics.counter metrics ~section:"engine" "deadline_hits";
    i_round_latency =
      Metrics.histogram metrics ~section:"engine" "round_latency_seconds"
        ~buckets:round_latency_bucket_spec;
    i_sel_span = Metrics.span metrics ~section:"engine" "selector_seconds";
  }

(* The single-run engine proper: the fixed allocation vector drives
   {!Query}, and every round lands in [instr]. Callers must have run
   [check_policies] and registered [instr] on [metrics] (the registry
   is still threaded through for the platform's own instruments).
   [scratch] is reusable simulation storage: replication loops pass one
   handle per worker so consecutive runs (and rounds within a run)
   share buffers. *)
let run_registered ~scratch instr ~metrics rng cfg truth =
  Metrics.incr instr.i_runs;
  let budgets = Array.of_list (Allocation.round_budgets cfg.allocation) in
  let total_rounds = Array.length budgets in
  (* At most one answer per posted question, so the total budget bounds
     the edge pool: preallocating it makes every add allocation-free. *)
  let budget = Array.fold_left ( + ) 0 budgets in
  let q =
    Query.create ~edge_capacity:budget ~span:instr.i_sel_span
      ~pad:cfg.pad_to_round_budget ~straggler:cfg.straggler
      ~selection:cfg.selection ~budget truth
  in
  while
    Query.rounds q < total_rounds && Dag.candidate_count (Query.dag q) > 1
  do
    let round =
      Query.select q rng ~budget:budgets.(Query.rounds q) ~horizon:total_rounds
    in
    let posted = Query.posted round in
    Metrics.incr instr.i_rounds;
    (* A selector that asks nothing cannot make progress, but the round
       still consumed its slot in the allocation vector: it is recorded
       (zero questions, zero latency) so trace indices stay dense —
       trajectory/export consumers assume [trace] covers every round
       run. *)
    if posted = 0 then ignore (Query.absorb q round (full_round 0.0 ~answered:0))
    else begin
      let outcome =
        answer_pairs ~scratch ~metrics rng ~source:cfg.source
          ~deadline:cfg.deadline ~latency_model:cfg.latency_model truth
          (Query.dag q) (Query.questions round) ~posted
      in
      let r = Query.absorb q round outcome in
      Metrics.add instr.i_posted posted;
      Metrics.add instr.i_distinct r.distinct_questions;
      Metrics.add instr.i_padded r.padded_questions;
      Metrics.add instr.i_unanswered r.unanswered_questions;
      Metrics.add instr.i_reissued r.reissued_questions;
      Metrics.add instr.i_consensus outcome.answered;
      if r.deadline_hit then Metrics.incr instr.i_deadline_hits;
      Metrics.observe instr.i_round_latency r.round_latency
    end
  done;
  Query.finish q

(* A reusable runner: policies checked, instruments registered and
   scratch allocated once, shared by every run the closure performs.
   This is the per-run fast path the replication loops and the bench
   harness use; a runner must not be shared across domains (the scratch
   is single-owner mutable state). *)
let runner ?(metrics = Metrics.disabled) cfg =
  check_policies cfg;
  let instr = make_instruments metrics in
  let scratch = Platform.scratch () in
  fun rng truth -> run_registered ~scratch instr ~metrics rng cfg truth

let run ?metrics rng cfg truth = runner ?metrics cfg rng truth

type timing = { jobs : int; wall_seconds : float; runs_per_sec : float }

type aggregate = {
  runs : int;
  mean_latency : float;
  stddev_latency : float;
  median_latency : float;
  p95_latency : float;
  singleton_rate : float;
  correct_rate : float;
  mean_questions : float;
  mean_rounds : float;
  timing : timing;
}

(* Field-by-field with Float.equal: polymorphic (=) on float-bearing
   records is unsound under NaN (never equal to itself) and conflates
   0.0 with -0.0, the bug class PR 1 fixed in Stats.percentile. Timing
   is machine-dependent and deliberately ignored. *)
let equal_stats a b =
  a.runs = b.runs
  && Float.equal a.mean_latency b.mean_latency
  && Float.equal a.stddev_latency b.stddev_latency
  && Float.equal a.median_latency b.median_latency
  && Float.equal a.p95_latency b.p95_latency
  && Float.equal a.singleton_rate b.singleton_rate
  && Float.equal a.correct_rate b.correct_rate
  && Float.equal a.mean_questions b.mean_questions
  && Float.equal a.mean_rounds b.mean_rounds

let make_timing ~jobs ~runs t0 =
  let wall_seconds = Clock.now () -. t0 in
  {
    jobs;
    wall_seconds;
    runs_per_sec = float_of_int runs /. Float.max wall_seconds 1e-9;
  }

(* Derive one rng per run from the master seed *sequentially*, whatever
   the parallelism: run [i] consumes exactly the stream it would consume
   in a [for]-loop over [Rng.split master], so the per-run results — and
   therefore every aggregate below, which folds arrays in index order —
   are bit-identical for any [jobs]. *)
let per_run_rngs ~runs ~seed =
  let master = Rng.create seed in
  let rngs = Array.make runs master in
  for i = 0 to runs - 1 do
    rngs.(i) <- Rng.split master
  done;
  rngs

let aggregate_results ~runs ~timing results =
  let latencies = Array.map (fun r -> r.total_latency) results in
  let count p = Array.fold_left (fun n r -> if p r then n + 1 else n) 0 results in
  let sum p = Array.fold_left (fun n r -> n + p r) 0 results in
  let f = float_of_int in
  {
    runs;
    mean_latency = Stats.mean latencies;
    stddev_latency = Stats.stddev latencies;
    median_latency = Stats.percentile latencies 50.0;
    p95_latency = Stats.percentile latencies 95.0;
    singleton_rate = f (count (fun r -> r.singleton)) /. f runs;
    correct_rate = f (count (fun r -> r.correct)) /. f runs;
    mean_questions = f (sum (fun r -> r.questions_posted)) /. f runs;
    mean_rounds = f (sum (fun r -> r.rounds_run)) /. f runs;
    timing;
  }

(* Runs split into at most [jobs] contiguous chunks, one per domain.
   Each chunk builds its own mutable state ([init]: simulation scratch,
   plan cache, metrics registry — none of which may cross domains) and
   maps its runs in order, so per-run results land in run order for
   any [jobs]. *)
let map_chunked ~jobs ~init f rngs =
  let runs = Array.length rngs in
  let nchunks = min runs jobs in
  let bound i = i * runs / nchunks in
  let chunk ci =
    let state = init () in
    let lo = bound ci in
    Array.init (bound (ci + 1) - lo) (fun k -> f state rngs.(lo + k))
  in
  Array.concat
    (Array.to_list
       (Parallel.with_pool ~jobs (fun pool -> Parallel.init pool nchunks chunk)))

let replicate ?(jobs = 1) ~runs ~seed cfg ~elements =
  if runs < 1 then invalid_arg "Engine.replicate: runs < 1";
  if jobs < 1 then invalid_arg "Engine.replicate: jobs < 1";
  check_policies cfg;
  let t0 = Clock.now () in
  (* Disabled-registry instrument handles are immutable no-ops, safe to
     share across domains. *)
  let instr = make_instruments Metrics.disabled in
  let results =
    map_chunked ~jobs ~init:Platform.scratch
      (fun scratch rng ->
        let truth = Ground_truth.random rng elements in
        run_registered ~scratch instr ~metrics:Metrics.disabled rng cfg truth)
      (per_run_rngs ~runs ~seed)
  in
  aggregate_results ~runs ~timing:(make_timing ~jobs ~runs t0) results

(* Metrics under parallel replication: a snapshot per run, merged in
   run order on the caller. Counters/peaks/histograms commute under
   merge and each per-run snapshot is a function of that run's rng
   alone, so the merged simulated entries are bit-identical for any
   [jobs]; only the [Real_seconds] spans vary between invocations.

   Registries are single-domain mutable state, so each worker needs its
   own — but a fresh registry per run would pay instrument registration
   on every run, which is the bulk of the per-run observability cost on
   cheap (oracle) configs. Instead each contiguous chunk of runs shares
   one registry, [Metrics.reset] between runs. A reset registry
   snapshots identically to a fresh one because [run] (and the platform
   underneath) registers its instrument set unconditionally, so the
   per-run snapshots — and hence the merged document — cannot depend on
   where the chunk boundaries fall. *)
let replicate_with_metrics ?(jobs = 1) ~runs ~seed cfg ~elements =
  if runs < 1 then invalid_arg "Engine.replicate_with_metrics: runs < 1";
  if jobs < 1 then invalid_arg "Engine.replicate_with_metrics: jobs < 1";
  check_policies cfg;
  let t0 = Clock.now () in
  let rngs = per_run_rngs ~runs ~seed in
  let chunk_state () =
    let metrics = Metrics.create () in
    (metrics, make_instruments metrics, Platform.scratch ())
  in
  let one (metrics, instr, scratch) rng =
    Metrics.reset metrics;
    let truth = Ground_truth.random rng elements in
    run_registered ~scratch instr ~metrics rng cfg truth
  in
  let results, snapshot =
    if jobs = 1 then begin
      (* Single chunk: one reused registry, absorbed into a mutable
         accumulator after every run. [absorb]'s value grouping is the
         left-fold merge of the per-run snapshots — exactly the parallel
         path's final fold — so the merged document is bit-identical for
         any [jobs] while the sequential path allocates no snapshots at
         all. *)
      let acc = Metrics.create () in
      let ((metrics, _, _) as state) = chunk_state () in
      let results =
        Array.map
          (fun rng ->
            let result = one state rng in
            Metrics.absorb ~into:acc metrics;
            result)
          rngs
      in
      (results, Metrics.snapshot acc)
    end
    else
      let pairs =
        map_chunked ~jobs ~init:chunk_state
          (fun ((metrics, _, _) as state) rng ->
            let result = one state rng in
            (result, Metrics.snapshot metrics))
          rngs
      in
      (Array.map fst pairs, Metrics.merge (Array.to_list (Array.map snd pairs)))
  in
  (aggregate_results ~runs ~timing:(make_timing ~jobs ~runs t0) results, snapshot)
