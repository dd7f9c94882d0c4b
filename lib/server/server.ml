module Metrics = Crowdmax_obs.Metrics
module Model = Crowdmax_latency.Model
module Contention = Crowdmax_latency.Contention
module Tdp = Crowdmax_core.Tdp
module Ground_truth = Crowdmax_crowd.Ground_truth
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl
module Worker = Crowdmax_crowd.Worker
module Engine = Crowdmax_runtime.Engine
module Query = Engine.Query

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
      (* A query posts at most [budget] rounds, one per fleet step, and
         then finalizes, so the fleet's step counter reaches at most
         [admit_step + budget + 1]. *)
      if s.admit_step > max_int - s.budget - 1 then
        invalid_arg "Server.run: admit_step overflows the fleet step counter";
      Engine.check_deadline ~caller:"Server.run" s.deadline)
    specs

let filter_array p a = Array.of_list (List.filter p (Array.to_list a))

(* Fixed whole-query latency buckets (simulated seconds): a query's
   life spans several platform rounds, so the scale sits an order of
   magnitude above the engine's per-round buckets. Fixed bounds keep
   the exported schema stable. *)
let query_latency_bucket_spec =
  Metrics.bucket_spec
    [| 600.0; 1200.0; 2400.0; 4800.0; 9600.0; 19200.0; 38400.0; 76800.0 |]

(* Per-query server state around the query's round machine.
   [last_posted] feeds the fleet-load estimate the other queries plan
   against. *)
type query_state = {
  spec : query_spec;
  query : Query.t;
  cache : Tdp.Cache.t;
  mutable admitted : bool;
  mutable finished : bool;
  mutable admitted_at : float;
  mutable finished_at : float;
  mutable last_posted : int option;
  mutable last_model : Model.t option;
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
    Metrics.histogram metrics ~section:"server" "query_latency_seconds"
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
          query = Query.create ~selection ~budget:spec.budget truths.(i);
          cache = Tdp.Cache.create ();
          admitted = false;
          finished = false;
          admitted_at = 0.0;
          finished_at = 0.0;
          last_posted = None;
          last_model = None;
        })
      specs
  in
  let clock = ref 0.0 in
  let step = ref 0 in
  let contention_replans = ref 0 in
  let finalize st =
    st.finished <- true;
    st.finished_at <- !clock;
    Metrics.incr m_completed;
    Metrics.observe m_query_latency (Query.latency st.query)
  in
  let waiting st = st.admitted && not st.finished in
  while Array.exists (fun st -> not st.finished) states do
    (* An idle fleet (no admitted query left unfinished, so some query
       is still to arrive) skips straight to the next admission: the
       steps in between would only be counted. *)
    if not (Array.exists waiting states) then begin
      let next =
        Array.fold_left
          (fun acc st -> if st.admitted then acc else min acc st.spec.admit_step)
          max_int states
      in
      Metrics.add m_steps (next - !step);
      step := next
    end;
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
    Array.iter
      (fun st -> if waiting st && not (Query.active st.query) then finalize st)
      states;
    let posting = filter_array waiting states in
    Metrics.record_peak m_active_peak (Array.length posting);
    (* Fleet-load estimate per posting query: the raw questions the
       *others* are about to keep in flight. A query that has posted
       before is estimated at its previous round's raw size; a fresh
       one at votes * (c0 - 1) (Theorem 1's floor — conservative, but
       available without solving the circular "everyone's plan
       depends on everyone's plan" fixpoint). One step of lag is the
       price of a deterministic, order-independent estimate. *)
    let load_of st =
      st.spec.votes
      * match st.last_posted with Some p -> p | None -> st.spec.elements - 1
    in
    let total_load = Array.fold_left (fun acc st -> acc + load_of st) 0 posting in
    (* Plan + select, in admission (spec) order: all selection draws
       happen before any platform draw, a fixed documented schedule. *)
    let batches =
      Array.map
        (fun st ->
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
          (* Every posting query is active, so [replan] always plans. *)
          let budget, horizon =
            Option.value (Query.replan ~cache:st.cache st.query model)
              ~default:(0, 0)
          in
          Metrics.incr m_replans;
          (st, Query.select st.query rng ~budget ~horizon))
        posting
    in
    (* Queries whose selector returned nothing finalize; the rest go to
       the shared marketplace as one fleet round. *)
    Array.iter
      (fun (st, round) -> if Query.posted round = 0 then finalize st)
      batches;
    let live = filter_array (fun (_, round) -> Query.posted round > 0) batches in
    if Array.length live > 0 then begin
      (* Deadline quotes come from the *advertised* solo model, not the
         planner's internal contention estimate: the requester's
         patience is a property of the workload, so a Quantile cutoff
         must be the same number of seconds whichever planning arm
         serves it — otherwise a contention-aware server "improves"
         simply by quoting itself more time per round. *)
      let deadlines =
        Array.map
          (fun (st, round) ->
            Option.value ~default:Float.infinity
              (Engine.round_deadline ~deadline:st.spec.deadline
                 ~latency_model:base ~posted:(Query.posted round)))
          live
      in
      let counts =
        Array.map (fun (_, round) -> Array.make (Query.posted round) 0) live
      in
      let on_complete ~query idx _time =
        Engine.count_vote counts.(query)
          ~posted:(Array.length counts.(query))
          idx
      in
      let reports =
        Platform.simulate_shared ~deadlines ~metrics ~scratch platform rng
          ~pick ~on_complete
          (Array.map (fun (st, round) -> st.spec.votes * Query.posted round) live)
      in
      (* Vote resolution per query, again in admission order. *)
      let step_seconds = ref 0.0 in
      Array.iteri
        (fun i (st, round) ->
          let outcome =
            Engine.resolve_votes rng
              { Rwl.votes = st.spec.votes; error = st.spec.error }
              ~truth:(Query.truth st.query) (Query.dag st.query)
              (Query.questions round) counts.(i) reports.(i)
          in
          let r = Query.absorb st.query round outcome in
          let posted = Query.posted round in
          st.last_posted <- Some posted;
          if r.Engine.deadline_hit then Metrics.incr m_deadline_hits;
          Metrics.incr m_rounds;
          Metrics.add m_posted posted;
          if r.round_latency > !step_seconds then
            step_seconds := r.round_latency)
        live;
      (* Barrier semantics: the fleet step lasts as long as its slowest
         round. *)
      clock := !clock +. !step_seconds
    end;
    Metrics.incr m_steps;
    incr step
  done;
  let queries =
    Array.map
      (fun st ->
        let r = Query.finish st.query in
        {
          label = st.spec.label;
          chosen = r.Engine.chosen;
          correct = r.correct;
          singleton = r.singleton;
          rounds = r.rounds_run;
          questions = r.questions_posted;
          latency = r.total_latency;
          sojourn = st.finished_at -. st.admitted_at;
          admitted_at = st.admitted_at;
          deadline_hits = Query.deadline_hits st.query;
        })
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
  (* Per-run ground truths are drawn from the run's own rng, in spec
     order, before the fleet loop touches it — the same
     truths-then-work shape as [Engine.replicate]. Each run builds
     fresh per-query plan caches (queries plan against different
     effective models as load shifts, so cross-run sharing buys little
     and per-run caches keep the any-[jobs] bit-identity trivial); the
     platform scratch is shared per chunk like everywhere else. *)
  let results =
    Engine.map_chunked ~jobs ~init:Platform.scratch
      (fun scratch rng ->
        let truths =
          Array.map (fun spec -> Ground_truth.random rng spec.elements) specs
        in
        run ?contention ?pick ~scratch ~platform ~latency ~selection rng specs
          truths)
      (Engine.per_run_rngs ~runs ~seed)
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
