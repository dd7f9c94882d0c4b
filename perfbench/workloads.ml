(* The benchmark's three workloads: inputs generated from the workload
   seed, the library call each run makes, the output checks, and a
   traced run that times every call into a layer from here (no spans
   inside lib/). See README.md for why each workload exists. *)

open Crowdmax_util
module Clock = Crowdmax_obs.Clock
module Metrics = Crowdmax_obs.Metrics
module Dag = Crowdmax_graph.Answer_dag
module Scoring = Crowdmax_graph.Scoring
module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Allocation = Crowdmax_core.Allocation
module Selection = Crowdmax_selection.Selection
module Ground_truth = Crowdmax_crowd.Ground_truth
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl
module Worker = Crowdmax_crowd.Worker
module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive
module Server = Crowdmax_server.Server
module Fig_server = Crowdmax_experiments.Fig_server

(* What one MAX query decided: the inputs of the decision metrics. *)
type fact = { latency : float; questions : int; correct : bool }

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Check_failed msg)) fmt

let check_query ~elements ~budget ~chosen ~questions =
  if chosen < 0 || chosen >= elements then
    fail "chosen element %d outside [0, %d)" chosen elements;
  if questions > budget then
    fail "posted %d questions over a budget of %d" questions budget

(* {1 Tracing} *)

(* Wall time and call count of one layer over a traced run. *)
type span = { mutable seconds : float; mutable calls : int }

let time span f =
  let t0 = Clock.now () in
  let r = f () in
  span.seconds <- span.seconds +. (Clock.now () -. t0);
  span.calls <- span.calls + 1;
  r

type tracer = {
  tdp : span;
  selection : span;
  platform : span;
  rwl : span;
  answer_dag : span;
  mutable tdp_states : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable pairs : int;
  mutable raw_questions : int;
  metrics : Metrics.t;
      (* the program's own platform and server counters *)
}

let tracer () =
  let span () = { seconds = 0.0; calls = 0 } in
  {
    tdp = span ();
    selection = span ();
    platform = span ();
    rwl = span ();
    answer_dag = span ();
    tdp_states = 0;
    cache_hits = 0;
    cache_misses = 0;
    pairs = 0;
    raw_questions = 0;
    metrics = Metrics.create ();
  }

let layer_seconds tr =
  tr.tdp.seconds +. tr.selection.seconds +. tr.platform.seconds
  +. tr.rwl.seconds +. tr.answer_dag.seconds

(* The selector with its calls timed and its pairs counted. It draws
   exactly what the wrapped selector draws. *)
let traced_selection tr (sel : Selection.t) =
  {
    sel with
    Selection.select =
      (fun rng input ->
        let pairs = time tr.selection (fun () -> sel.Selection.select rng input) in
        tr.pairs <- tr.pairs + List.length pairs;
        pairs);
  }

(* The engine's end-of-run pick: the lone survivor, else the strongest
   remaining candidate. *)
let pick tr truth dag ~rounds_run ~questions_posted ~total_latency =
  let remaining = time tr.answer_dag (fun () -> Dag.remaining_candidates dag) in
  let chosen =
    match remaining with
    | [ w ] -> w
    | _ -> (
        match time tr.answer_dag (fun () -> Scoring.ranked_candidates dag) with
        | best :: _ -> best
        | [] -> fail "no candidate remains")
  in
  {
    Engine.chosen;
    correct = chosen = Ground_truth.max_element truth;
    singleton = List.length remaining = 1;
    rounds_run;
    questions_posted;
    total_latency;
    trace = [];
  }

(* A traced loop measures the library only if it computes what the
   library computes: same pick, same latency bits, same work. *)
let verify ~(traced : Engine.result) (library : Engine.result) =
  if
    not
      (traced.chosen = library.chosen
      && Float.equal traced.total_latency library.total_latency
      && traced.questions_posted = library.questions_posted
      && traced.rounds_run = library.rounds_run)
  then
    fail
      "traced loop diverged from the library: chosen %d vs %d, latency %h vs \
       %h, questions %d vs %d, rounds %d vs %d"
      traced.chosen library.chosen traced.total_latency library.total_latency
      traced.questions_posted library.questions_posted traced.rounds_run
      library.rounds_run

let verify_facts ~traced library =
  let same a b =
    Float.equal a.latency b.latency
    && a.questions = b.questions
    && Bool.equal a.correct b.correct
  in
  if
    not
      (Array.length traced = Array.length library
      && Array.for_all2 same traced library)
  then fail "traced fleet diverged from the untraced one"

(* {1 Workloads} *)

(* Whose round loop a traced run times as self time. *)
type loop = Adaptive_loop | Engine_loop | Server_loop

type instance = {
  loop : loop;
  queries_per_run : int;
  inputs : int;  (** distinct inputs, numbered from 0 *)
  run : int -> fact array;
      (** one library run on input [i], outputs checked; raises
          [Check_failed] on a bad output *)
  traced : tracer -> int -> fact array * (unit -> unit);
      (** the same run with its layer calls timed, and a thunk that
          reruns it untraced through the library and raises on any
          difference *)
}

let single_fact ~elements ~budget (r : Engine.result) =
  check_query ~elements ~budget ~chosen:r.chosen ~questions:r.questions_posted;
  [| { latency = r.total_latency; questions = r.questions_posted; correct = r.correct } |]

(* adaptive-oracle: per-query re-planning with a cold plan cache, the
   oracle answering. Tdp, Selection and Answer_dag do the work.

   Planning cost is heavy-tailed: a budget near 2 c0 with a large c0
   and a large delta/alpha plans ~100x slower than a generous budget,
   so a few inputs carry most of a pass. Independent draws let the
   share of such inputs swing from seed to seed. The inputs are instead
   a randomly shifted rank-1 lattice: input [i]'s four coordinates are
   frac(i g / n + s) for the generating vector [lattice] and a shift
   [s] drawn from the seed. Each input is still uniform over the
   parameter box, but every seed covers the box evenly. Over ten seeds
   of 250 inputs, the planner's total work then spreads 4.7% and its
   99th percentile 7.6%, against 10% and 19% for independent draws. *)
let lattice = [| 1; 76; 13; 191 |]

let adaptive_oracle ~seed ~inputs =
  let rng = Rng.create seed in
  let selection = Selection.tournament in
  let shift = Array.map (fun _ -> Rng.float rng 1.0) lattice in
  let order = Rng.permutation rng inputs in
  let coordinate i d =
    Float.rem
      ((float_of_int (i * lattice.(d) mod inputs) /. float_of_int inputs) +. shift.(d))
      1.0
  in
  let input k =
    let i = order.(k) in
    let elements = int_of_float (200.0 +. (801.0 *. coordinate i 0)) in
    let budget_factor = 2.0 +. (6.0 *. coordinate i 1) in
    let budget = int_of_float (budget_factor *. float_of_int elements) in
    let alpha = 0.06 *. (0.8 +. (0.4 *. coordinate i 2)) in
    let delta = 239.0 *. (0.8 +. (0.4 *. coordinate i 3)) in
    let truth = Ground_truth.random rng elements in
    let run_rng = Rng.split rng in
    ( Problem.create ~elements ~budget ~latency:(Model.linear ~delta ~alpha),
      truth,
      run_rng )
  in
  let pool = Array.init inputs input in
  let library (problem, truth, run_rng) =
    (Adaptive.run ~cache:(Tdp.Cache.create ()) (Rng.copy run_rng) ~problem
       ~selection truth)
      .Adaptive.engine_result
  in
  let facts (problem, _, _) (r : Engine.result) =
    if r.singleton && not r.correct then
      fail "oracle run ended singleton on %d, not the true MAX" r.chosen;
    single_fact ~elements:problem.Problem.elements ~budget:problem.Problem.budget r
  in
  (* Adaptive.run's round loop under [Oracle], refit [Off], no shifts. *)
  let traced_run tr ~selection (problem, truth, run_rng) =
    let rng = Rng.copy run_rng in
    let { Problem.elements; budget; latency } = problem in
    let cache = Tdp.Cache.create () in
    let dag = Dag.create elements in
    let remaining = ref budget in
    let total_latency = ref 0.0 in
    let posted_total = ref 0 in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let candidates = time tr.answer_dag (fun () -> Dag.candidates dag) in
      let c = Array.length candidates in
      if c <= 1 || !remaining < c - 1 then continue_ := false
      else begin
        let plan =
          time tr.tdp (fun () ->
              Tdp.solve ~cache
                (Problem.create ~elements:c ~budget:!remaining ~latency))
        in
        tr.tdp_states <- tr.tdp_states + plan.Tdp.states_visited;
        let round_budget =
          match Allocation.round_budgets plan.Tdp.allocation with
          | q :: _ -> min q !remaining
          | [] -> 0
        in
        if round_budget = 0 then continue_ := false
        else begin
          let questions =
            selection.Selection.select rng
              {
                Selection.budget = round_budget;
                candidates;
                history = dag;
                round_index = !rounds;
                total_rounds = !rounds + Allocation.rounds plan.Tdp.allocation;
                carried = [];
              }
          in
          let posted = List.length questions in
          if posted = 0 then continue_ := false
          else begin
            let outcome =
              time tr.answer_dag (fun () ->
                  Engine.answer_round rng ~source:Engine.Oracle
                    ~deadline:Engine.Wait_all ~latency_model:latency truth dag
                    questions ~distinct:posted ~posted)
            in
            total_latency := !total_latency +. outcome.Engine.round_seconds;
            posted_total := !posted_total + posted;
            remaining := !remaining - posted;
            incr rounds
          end
        end
      end
    done;
    tr.cache_hits <- tr.cache_hits + Tdp.Cache.hits cache;
    tr.cache_misses <- tr.cache_misses + Tdp.Cache.misses cache;
    pick tr truth dag ~rounds_run:!rounds ~questions_posted:!posted_total
      ~total_latency:!total_latency
  in
  {
    loop = Adaptive_loop;
    queries_per_run = 1;
    inputs;
    run = (fun i -> facts pool.(i) (library pool.(i)));
    traced =
      (fun tr i ->
        let r = traced_run tr ~selection:(traced_selection tr selection) pool.(i) in
        (facts pool.(i) r, fun () -> verify ~traced:r (library pool.(i))));
  }

(* static-sim: the paper's pipeline, one tDP plan solved here and run
   on the simulated platform. Platform and Rwl do the work. *)
let static_sim ~seed ~inputs =
  let elements = 500 and budget = 4000 in
  let rwl = { Rwl.votes = 3; error = Worker.Uniform 0.15 } in
  let selection = Selection.tournament in
  let platform = Platform.create () in
  let cfg =
    Engine.plan_config
      ~source:(Engine.Simulated { platform; rwl })
      ~problem:(Problem.create ~elements ~budget ~latency:Model.paper_mturk)
      ~selection ()
  in
  let runner = Engine.runner cfg in
  let rng = Rng.create seed in
  let pool =
    Array.init inputs (fun _ ->
        let truth = Ground_truth.random rng elements in
        (truth, Rng.split rng))
  in
  let library (truth, run_rng) = runner (Rng.copy run_rng) truth in
  let facts r = single_fact ~elements ~budget r in
  (* Engine.run's round loop under [Simulated], [Wait_all], padding on:
     no straggler is ever carried, and votes are drawn before the
     platform's event stream. *)
  let budgets = Array.of_list (Allocation.round_budgets cfg.Engine.allocation) in
  let total_rounds = Array.length budgets in
  let scratch = Platform.scratch () in
  let traced_run tr ~selection (truth, run_rng) =
    let rng = Rng.copy run_rng in
    let dag =
      Dag.create ~edge_capacity:(Array.fold_left ( + ) 0 budgets) elements
    in
    let total_latency = ref 0.0 in
    let posted_total = ref 0 in
    let rounds = ref 0 in
    let finished = ref false in
    while (not !finished) && !rounds < total_rounds do
      let candidates = time tr.answer_dag (fun () -> Dag.candidates dag) in
      if Array.length candidates <= 1 then finished := true
      else begin
        let round_budget = budgets.(!rounds) in
        let questions =
          selection.Selection.select rng
            {
              Selection.budget = round_budget;
              candidates;
              history = dag;
              round_index = !rounds;
              total_rounds;
              carried = [];
            }
        in
        (* The engine pads a short round up to its budget. *)
        let posted = max round_budget (List.length questions) in
        let outcome = time tr.rwl (fun () -> Rwl.resolve rng rwl ~truth questions) in
        let raw = rwl.Rwl.votes * posted in
        let latency =
          time tr.platform (fun () ->
              Platform.batch_latency ~metrics:tr.metrics ~scratch platform rng raw)
        in
        tr.raw_questions <- tr.raw_questions + raw;
        time tr.answer_dag (fun () ->
            List.iter
              (fun (winner, loser) -> Dag.add_answer_unchecked dag ~winner ~loser)
              outcome.Rwl.answers);
        total_latency := !total_latency +. latency;
        posted_total := !posted_total + posted;
        incr rounds;
        if Dag.candidate_count dag <= 1 then finished := true
      end
    done;
    pick tr truth dag ~rounds_run:!rounds ~questions_posted:!posted_total
      ~total_latency:!total_latency
  in
  {
    loop = Engine_loop;
    queries_per_run = 1;
    inputs;
    run = (fun i -> facts (library pool.(i)));
    traced =
      (fun tr i ->
        let r = traced_run tr ~selection:(traced_selection tr selection) pool.(i) in
        (facts r, fun () -> verify ~traced:r (library pool.(i))));
  }

let fleet_size = 8

(* fleet-shared: fleets of concurrent queries on one shared marketplace
   with contention-aware planning. Every contention re-plan rebuilds a
   query's planner tables; the platform runs [simulate_shared] with
   deadline withdrawals and the RWL resolves partial votes. *)
let fleet_shared ~seed ~inputs =
  let platform = Platform.create () in
  let base = Fig_server.calibrate_base platform in
  let contention = Fig_server.calibrate_beta platform base in
  let selection = Selection.tournament in
  let scratch = Platform.scratch () in
  let rng = Rng.create seed in
  (* Fig_server's query mix, drawn per query: lean (2.5x) or generous
     (8x) budgets, 2 or 3 votes, every deadline policy (fixed cutoffs
     quoted from the solo model), admissions staggered over 4 steps. *)
  let spec j =
    let elements = Rng.int_in rng 100 400 in
    let budget = if Rng.bool rng then elements * 5 / 2 else 8 * elements in
    let votes = Rng.int_in rng 2 3 in
    let deadline =
      match Rng.int rng 3 with
      | 0 -> Engine.Wait_all
      | 1 -> Engine.Fixed (Model.eval base (Rng.int_in rng 120 150))
      | _ -> Engine.Quantile (if Rng.bool rng then 0.9 else 0.95)
    in
    let admit_step = Rng.int_in rng 0 3 in
    Server.query_spec ~label:(string_of_int j) ~votes ~deadline ~admit_step
      ~elements ~budget ()
  in
  let pool =
    Array.init inputs (fun _ ->
        let specs = Array.init fleet_size spec in
        let truths =
          Array.map (fun s -> Ground_truth.random rng s.Server.elements) specs
        in
        (specs, truths, Rng.split rng))
  in
  let serve ?metrics ~selection (specs, truths, run_rng) =
    Server.run ?metrics ~scratch ~contention ~pick:Platform.Proportional
      ~platform ~latency:base ~selection (Rng.copy run_rng) specs truths
  in
  let facts (specs, _, _) (r : Server.result) =
    if Array.length r.queries <> Array.length specs then
      fail "fleet of %d queries reported %d results" (Array.length specs)
        (Array.length r.queries);
    Array.mapi
      (fun j (q : Server.query_report) ->
        let s = specs.(j) in
        check_query ~elements:s.Server.elements ~budget:s.Server.budget
          ~chosen:q.chosen ~questions:q.questions;
        { latency = q.latency; questions = q.questions; correct = q.correct })
      r.queries
  in
  {
    loop = Server_loop;
    queries_per_run = fleet_size;
    inputs;
    run = (fun i -> facts pool.(i) (serve ~selection pool.(i)));
    traced =
      (fun tr i ->
        let ((specs, _, _) as input) = pool.(i) in
        let r =
          serve ~metrics:tr.metrics ~selection:(traced_selection tr selection)
            input
        in
        Array.iteri
          (fun j (q : Server.query_report) ->
            tr.raw_questions <-
              tr.raw_questions + (specs.(j).Server.votes * q.questions))
          r.queries;
        let traced = facts input r in
        (traced, fun () -> verify_facts ~traced (facts input (serve ~selection input))));
  }

let all =
  [
    ("adaptive-oracle", adaptive_oracle);
    ("static-sim", static_sim);
    ("fleet-shared", fleet_shared);
  ]
