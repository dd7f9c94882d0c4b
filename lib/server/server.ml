open Crowdmax_util
module Metrics = Crowdmax_obs.Metrics
module Dag = Crowdmax_graph.Answer_dag
module Scoring = Crowdmax_graph.Scoring
module Model = Crowdmax_latency.Model
module Contention = Crowdmax_latency.Contention
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Allocation = Crowdmax_core.Allocation
module Selection = Crowdmax_selection.Selection
module Ground_truth = Crowdmax_crowd.Ground_truth
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl
module Worker = Crowdmax_crowd.Worker
module Engine = Crowdmax_runtime.Engine

type query_spec = {
  label : string;
  elements : int;
  budget : int;
  votes : int;
  error : Worker.error_model;
  deadline : Engine.deadline_policy;
  admit_step : int;
}

let query_spec ?(label = "q") ?(votes = 3)
    ?(error = Rwl.default_config.Rwl.error) ?(deadline = Engine.Wait_all)
    ?(admit_step = 0) ~elements ~budget () =
  { label; elements; budget; votes; error; deadline; admit_step }

type query_report = {
  label : string;
  chosen : int;
  correct : bool;
  singleton : bool;
  rounds : int;
  questions : int;
  latency : float;
  sojourn : float;
  admitted_at : float;
  deadline_hits : int;
}

type result = {
  queries : query_report array;
  steps : int;
  makespan : float;
  fleet_mean_latency : float;
  throughput : float;
  fairness : float;
  contention_replans : int;
}

(* Jain's fairness index over the per-query latencies:
   (sum x)^2 / (n * sum x^2), 1 when everyone got equal service, 1/n
   when one query absorbed everything. Degenerate all-zero latencies
   (every query trivial) count as perfectly fair. *)
let jain xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let s = Array.fold_left ( +. ) 0.0 xs in
    let s2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if s2 <= 0.0 then 1.0 else s *. s /. (float_of_int n *. s2)
  end

let check_specs specs =
  if Array.length specs = 0 then invalid_arg "Server.run: no queries";
  Array.iter
    (fun s ->
      if s.elements < 2 then invalid_arg "Server.run: elements < 2";
      if s.budget < s.elements - 1 then
        invalid_arg "Server.run: budget below Theorem 1's minimum";
      if s.votes < 1 then invalid_arg "Server.run: votes < 1";
      if s.admit_step < 0 then invalid_arg "Server.run: admit_step < 0";
      match s.deadline with
      | Engine.Wait_all -> ()
      | Engine.Fixed d ->
          if Float.is_nan d || d <= 0.0 then
            invalid_arg "Server.run: Fixed deadline must be > 0"
      | Engine.Quantile p ->
          if Float.is_nan p || p <= 0.0 || p > 1.0 then
            invalid_arg "Server.run: Quantile must be in (0, 1]")
    specs

(* Fixed whole-query latency buckets (simulated seconds): a query's
   life spans several platform rounds, so the scale sits an order of
   magnitude above the engine's per-round buckets. Fixed bounds keep
   the exported schema stable. *)
let query_latency_bucket_spec =
  Metrics.bucket_spec
    [| 600.0; 1200.0; 2400.0; 4800.0; 9600.0; 19200.0; 38400.0; 76800.0 |]

(* Per-query live state. [last_posted] feeds the fleet-load estimate
   the other queries plan against. *)
type query_state = {
  spec : query_spec;
  truth : Ground_truth.t;
  dag : Dag.t;
  rwl : Rwl.config;
  cache : Tdp.Cache.t;
  mutable admitted : bool;
  mutable finished : bool;
  mutable admitted_at : float;
  mutable remaining : int;
  mutable rounds : int;
  mutable questions : int;
  mutable latency_sum : float;
  mutable deadline_hits : int;
  mutable last_posted : int option;
  mutable last_model : Model.t option;
  mutable report : query_report option;
}

let run ?(metrics = Metrics.disabled) ?scratch ?contention
    ?(pick = Platform.Proportional) ~platform ~latency ~selection rng specs
    truths =
  check_specs specs;
  let nq = Array.length specs in
  if Array.length truths <> nq then
    invalid_arg "Server.run: truths length mismatch";
  Array.iteri
    (fun i t ->
      if Ground_truth.size t <> specs.(i).elements then
        invalid_arg "Server.run: ground truth size mismatch")
    truths;
  (* The planning base: the contention model's own base when given one,
     so aware and oblivious arms share the identical solo calibration
     and differ only in the load term. *)
  let base =
    match contention with Some c -> Contention.base c | None -> latency
  in
  let m_admitted = Metrics.counter metrics ~section:"server" "queries_admitted" in
  let m_completed = Metrics.counter metrics ~section:"server" "queries_completed" in
  let m_steps = Metrics.counter metrics ~section:"server" "fleet_steps" in
  let m_rounds = Metrics.counter metrics ~section:"server" "rounds_run" in
  let m_posted = Metrics.counter metrics ~section:"server" "questions_posted" in
  let m_replans = Metrics.counter metrics ~section:"server" "replans" in
  let m_contention_replans =
    Metrics.counter metrics ~section:"server" "contention_replans"
  in
  let m_deadline_hits =
    Metrics.counter metrics ~section:"server" "deadline_hits"
  in
  let m_active_peak = Metrics.peak metrics ~section:"server" "active_queries_peak" in
  let m_query_latency =
    Metrics.histogram_spec metrics ~section:"server" "query_latency_seconds"
      ~buckets:query_latency_bucket_spec
  in
  let scratch =
    match scratch with Some s -> s | None -> Platform.scratch ()
  in
  let states =
    Array.mapi
      (fun i spec ->
        {
          spec;
          truth = truths.(i);
          dag = Dag.create spec.elements;
          rwl = { Rwl.votes = spec.votes; error = spec.error };
          cache = Tdp.Cache.create ();
          admitted = false;
          finished = false;
          admitted_at = 0.0;
          remaining = spec.budget;
          rounds = 0;
          questions = 0;
          latency_sum = 0.0;
          deadline_hits = 0;
          last_posted = None;
          last_model = None;
          report = None;
        })
      specs
  in
  let clock = ref 0.0 in
  let step = ref 0 in
  let contention_replans = ref 0 in
  let finalize st =
    st.finished <- true;
    let remaining_c = Dag.remaining_candidates st.dag in
    let singleton = match remaining_c with [ _ ] -> true | _ -> false in
    let chosen =
      match remaining_c with
      | [ w ] -> w
      | _ -> (
          match Scoring.ranked_candidates st.dag with
          | best :: _ -> best
          | [] -> 0)
    in
    Metrics.incr m_completed;
    Metrics.observe m_query_latency st.latency_sum;
    st.report <-
      Some
        {
          label = st.spec.label;
          chosen;
          correct = chosen = Ground_truth.max_element st.truth;
          singleton;
          rounds = st.rounds;
          questions = st.questions;
          latency = st.latency_sum;
          sojourn = !clock -. st.admitted_at;
          admitted_at = st.admitted_at;
          deadline_hits = st.deadline_hits;
        }
  in
  let unfinished () = Array.exists (fun st -> not st.finished) states in
  while unfinished () do
    (* Admission: the arrival schedule is in fleet steps, deterministic
       by construction. *)
    Array.iter
      (fun st ->
        if (not st.admitted) && st.spec.admit_step <= !step then begin
          st.admitted <- true;
          st.admitted_at <- !clock;
          Metrics.incr m_admitted
        end)
      states;
    (* Who can post this step: admitted, unfinished, still deciding
       between >= 2 candidates with budget to spend. Queries failing
       the candidate/budget test finalize now (at the pre-step clock:
       they post nothing this step). *)
    let posting = ref [] in
    Array.iter
      (fun st ->
        if st.admitted && not st.finished then begin
          let c = Dag.candidate_count st.dag in
          if c <= 1 || st.remaining < c - 1 then finalize st
          else posting := st :: !posting
        end)
      states;
    let posting = Array.of_list (List.rev !posting) in
    let np = Array.length posting in
    Metrics.record_peak m_active_peak np;
    if np > 0 then begin
      (* Fleet-load estimate per posting query: the raw questions the
         *others* are about to keep in flight. A query that has posted
         before is estimated at its previous round's raw size; a fresh
         one at votes * (c0 - 1) (Theorem 1's floor — conservative, but
         available without solving the circular "everyone's plan
         depends on everyone's plan" fixpoint). One step of lag is the
         price of a deterministic, order-independent estimate. *)
      let load_of st =
        st.spec.votes
        * (match st.last_posted with
          | Some p -> p
          | None -> st.spec.elements - 1)
      in
      let total_load = Array.fold_left (fun acc st -> acc + load_of st) 0 posting in
      (* Plan + select, in admission (spec) order: all selection draws
         happen before any platform draw, a fixed documented schedule. *)
      let batches =
        Array.map
          (fun st ->
            let candidates = Dag.candidates st.dag in
            let c = Array.length candidates in
            let model =
              match contention with
              | None -> base
              | Some cm ->
                  Contention.effective cm ~other_load:(total_load - load_of st)
            in
            (match st.last_model with
            | Some m when not (Model.equal m model) ->
                incr contention_replans;
                Metrics.incr m_contention_replans
            | _ -> ());
            st.last_model <- Some model;
            let plan =
              Tdp.solve ~cache:st.cache
                (Problem.create ~elements:c ~budget:st.remaining ~latency:model)
            in
            Metrics.incr m_replans;
            let round_budget =
              match Allocation.round_budgets plan.Tdp.allocation with
              | q :: _ -> min q st.remaining
              | [] -> 0
            in
            let questions =
              if round_budget = 0 then []
              else
                selection.Selection.select rng
                  {
                    Selection.budget = round_budget;
                    candidates;
                    history = st.dag;
                    round_index = st.rounds;
                    total_rounds =
                      st.rounds + Allocation.rounds plan.Tdp.allocation;
                    carried = [];
                  }
            in
            let posted = List.length questions in
            (* Deadline quotes come from the *advertised* solo model,
               not the planner's internal contention estimate: the
               requester's patience is a property of the workload, so
               a Quantile cutoff must be the same number of seconds
               whichever planning arm serves it — otherwise a
               contention-aware server "improves" simply by quoting
               itself more time per round. *)
            let deadline =
              match
                Engine.round_deadline ~deadline:st.spec.deadline
                  ~latency_model:base ~posted:(max 1 posted)
              with
              | None -> Float.infinity
              | Some d -> d
            in
            (st, questions, posted, deadline))
          posting
      in
      (* Queries whose selector returned nothing finalize; the rest go
         to the shared marketplace as one fleet round. *)
      Array.iter
        (fun (st, _, posted, _) -> if posted = 0 then finalize st)
        batches;
      let live =
        Array.of_list
          (List.filter
             (fun (_, _, posted, _) -> posted > 0)
             (Array.to_list batches))
      in
      if Array.length live > 0 then begin
        let qs =
          Array.map (fun (st, _, posted, _) -> st.spec.votes * posted) live
        in
        let deadlines = Array.map (fun (_, _, _, d) -> d) live in
        let counts =
          Array.map (fun (_, _, posted, _) -> Array.make posted 0) live
        in
        let posted = Array.map (fun (_, _, posted, _) -> posted) live in
        (* Raw slot [i] of a query is repetition [i mod posted] — the
           engine's interleaved raw-slot layout, so early completions
           spread across the whole batch. *)
        let on_complete ~query idx _time =
          let slot = idx mod posted.(query) in
          counts.(query).(slot) <- counts.(query).(slot) + 1
        in
        let reports =
          Platform.simulate_shared ~deadlines ~metrics ~scratch platform rng
            ~pick ~on_complete qs
        in
        (* Vote resolution per query, again in admission order. *)
        let step_seconds = ref 0.0 in
        Array.iteri
          (fun i (st, questions, posted, _) ->
            let outcome =
              Rwl.resolve ~votes_received:counts.(i) rng st.rwl ~truth:st.truth
                questions
            in
            List.iter
              (fun (winner, loser) ->
                Dag.add_answer_unchecked st.dag ~winner ~loser)
              outcome.Rwl.answers;
            let report = reports.(i) in
            let round_latency = report.Platform.latency in
            st.latency_sum <- st.latency_sum +. round_latency;
            st.rounds <- st.rounds + 1;
            st.questions <- st.questions + posted;
            st.remaining <- st.remaining - posted;
            st.last_posted <- Some posted;
            if report.Platform.deadline_hit then begin
              st.deadline_hits <- st.deadline_hits + 1;
              Metrics.incr m_deadline_hits
            end;
            Metrics.incr m_rounds;
            Metrics.add m_posted posted;
            if round_latency > !step_seconds then step_seconds := round_latency)
          live;
        (* Barrier semantics: the fleet step lasts as long as its
           slowest round. *)
        clock := !clock +. !step_seconds
      end
    end;
    Metrics.incr m_steps;
    incr step
  done;
  let queries =
    Array.map
      (fun st ->
        match st.report with Some r -> r | None -> assert false)
      states
  in
  let latencies = Array.map (fun r -> r.latency) queries in
  let fleet_mean_latency =
    Array.fold_left ( +. ) 0.0 latencies /. float_of_int nq
  in
  {
    queries;
    steps = !step;
    makespan = !clock;
    fleet_mean_latency;
    throughput = (float_of_int nq /. Float.max !clock 1e-9);
    fairness = jain latencies;
    contention_replans = !contention_replans;
  }

type aggregate = {
  runs : int;
  mean_fleet_latency : float;
  mean_makespan : float;
  mean_fairness : float;
  mean_throughput : float;
  correct_rate : float;
  singleton_rate : float;
  total_contention_replans : int;
  total_deadline_hits : int;
  per_query_mean_latency : float array;
}

let float_array_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 Float.equal a b

let equal_aggregate a b =
  a.runs = b.runs
  && Float.equal a.mean_fleet_latency b.mean_fleet_latency
  && Float.equal a.mean_makespan b.mean_makespan
  && Float.equal a.mean_fairness b.mean_fairness
  && Float.equal a.mean_throughput b.mean_throughput
  && Float.equal a.correct_rate b.correct_rate
  && Float.equal a.singleton_rate b.singleton_rate
  && a.total_contention_replans = b.total_contention_replans
  && a.total_deadline_hits = b.total_deadline_hits
  && float_array_equal a.per_query_mean_latency b.per_query_mean_latency

let replicate ?(jobs = 1) ?contention ?pick ~platform ~latency ~selection ~runs
    ~seed specs () =
  if runs < 1 then invalid_arg "Server.replicate: runs < 1";
  if jobs < 1 then invalid_arg "Server.replicate: jobs < 1";
  check_specs specs;
  let nq = Array.length specs in
  let rngs = Engine.per_run_rngs ~runs ~seed in
  (* Per-run ground truths are drawn from the run's own rng, in spec
     order, before the fleet loop touches it — the same
     truths-then-work shape as [Engine.replicate]. Each run builds
     fresh per-query plan caches (queries plan against different
     effective models as load shifts, so cross-run sharing buys little
     and per-run caches keep the any-[jobs] bit-identity trivial); the
     platform scratch is shared per chunk like everywhere else. *)
  let one scratch rng =
    let truths =
      Array.map (fun spec -> Ground_truth.random rng spec.elements) specs
    in
    run ?contention ?pick ~scratch ~platform ~latency ~selection rng specs
      truths
  in
  let results =
    if jobs = 1 then begin
      let scratch = Platform.scratch () in
      Array.map (one scratch) rngs
    end
    else begin
      let nchunks = min runs jobs in
      let bound i = i * runs / nchunks in
      let chunk ci =
        let scratch = Platform.scratch () in
        let lo = bound ci in
        Array.init (bound (ci + 1) - lo) (fun k -> one scratch rngs.(lo + k))
      in
      let chunks =
        Parallel.with_pool ~jobs (fun pool -> Parallel.init pool nchunks chunk)
      in
      Array.concat (Array.to_list chunks)
    end
  in
  let fruns = float_of_int runs in
  let meanf f = Array.fold_left (fun acc r -> acc +. f r) 0.0 results /. fruns in
  let sumi f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  let per_query_mean_latency =
    Array.init nq (fun i ->
        Array.fold_left
          (fun acc r -> acc +. r.queries.(i).latency)
          0.0 results
        /. fruns)
  in
  let count_q p =
    sumi (fun r ->
        Array.fold_left (fun acc qr -> if p qr then acc + 1 else acc) 0 r.queries)
  in
  {
    runs;
    mean_fleet_latency = meanf (fun r -> r.fleet_mean_latency);
    mean_makespan = meanf (fun r -> r.makespan);
    mean_fairness = meanf (fun r -> r.fairness);
    mean_throughput = meanf (fun r -> r.throughput);
    correct_rate = float_of_int (count_q (fun q -> q.correct)) /. (fruns *. float_of_int nq);
    singleton_rate =
      float_of_int (count_q (fun q -> q.singleton)) /. (fruns *. float_of_int nq);
    total_contention_replans = sumi (fun r -> r.contention_replans);
    total_deadline_hits =
      sumi (fun r ->
          Array.fold_left
            (fun acc (q : query_report) -> acc + q.deadline_hits)
            0 r.queries);
    per_query_mean_latency;
  }
