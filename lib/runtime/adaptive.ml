module Metrics = Crowdmax_obs.Metrics
module Model = Crowdmax_latency.Model
module Estimate = Crowdmax_latency.Estimate
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Ground_truth = Crowdmax_crowd.Ground_truth
module Platform = Crowdmax_crowd.Platform
module Query = Engine.Query

type refit_policy = Off | Every_k_rounds of int | On_drift of float

type result = {
  engine_result : Engine.result;
  replans : int;
  refits : int;
  drift_detected : int;
  replans_on_drift : int;
  final_model : Model.t;
  observations : Estimate.observation list;
}

(* Fixed fit-residual buckets (seconds RMS): a well-calibrated model on
   the simulated platform sits in the first few buckets; a mid-run
   supply shift throws the residual into the hundreds. Fixed bounds
   keep the exported histogram schema stable, like the engine's
   round-latency buckets. *)
let residual_bucket_spec =
  Metrics.bucket_spec [| 5.0; 10.0; 20.0; 50.0; 100.0; 200.0; 400.0; 800.0; 1600.0 |]

let check_refit_policy ~refit ~refit_window =
  (match refit with
  | Off -> ()
  | Every_k_rounds k ->
      if k < 1 then invalid_arg "Adaptive.run: Every_k_rounds period < 1"
  | On_drift t ->
      if Float.is_nan t || t <= 0.0 then
        invalid_arg "Adaptive.run: On_drift threshold must be > 0");
  if refit_window < 2 then invalid_arg "Adaptive.run: refit_window < 2"

(* First [k] elements of a list (all of them if fewer): the observation
   window keeps the newest [refit_window] entries of a newest-first
   list. *)
let rec take k = function
  | x :: rest when k > 0 -> x :: take (k - 1) rest
  | _ -> []

let mean_seconds obs =
  List.fold_left (fun acc { Estimate.seconds; _ } -> acc +. seconds) 0.0 obs
  /. float_of_int (List.length obs)

(* Re-fit the current model's family on [obs], returning the new model
   only if it is usable: the fit itself must succeed (enough points,
   x-variance, finite data — the validated constructors and hardened
   regressions raise otherwise) and the result must be non-decreasing
   up to [qmax], the only property the tDP theory needs. A noisy window
   can produce a negative slope; installing it would make the planner
   favor absurdly large batches, so the old model is kept instead. *)
let attempt_refit ~qmax model obs =
  if Estimate.distinct_sizes obs < 2 then None
  else
    match Estimate.refit ~like:model obs with
    | fitted -> if Model.is_increasing_on fitted qmax then Some fitted else None
    | exception Invalid_argument _ -> None

(* One-point fallback when a full re-fit is under-determined (drift
   detected but only one batch size observed since): keep the current
   model's intercept and solve its slope through the newest observation
   — one new parameter per data point. A full fit needs two distinct
   post-shift sizes, i.e. two blind rounds, and tDP plans are
   front-loaded, so waiting burns the biggest remaining batches on a
   mis-modeled platform; the anchored slope is biased by whatever the
   intercept error is, but the slope term dominates the batch sizes the
   planner cares about, and the next solve corrects the structure. *)
let attempt_anchored_refit ~qmax model obs =
  match (model, obs) with
  | Model.Linear { delta; _ }, { Estimate.batch_size; seconds } :: _
    when batch_size > 0 ->
      let alpha = (seconds -. delta) /. float_of_int batch_size in
      if Float.is_finite alpha && alpha > 0.0 then
        let fitted = Model.linear ~delta ~alpha in
        if Model.is_increasing_on fitted qmax then Some fitted else None
      else None
  | Model.Power { delta; p; _ }, { Estimate.batch_size; seconds } :: _
    when batch_size > 0 ->
      let alpha = (seconds -. delta) /. (float_of_int batch_size ** p) in
      if Float.is_finite alpha && alpha > 0.0 then
        let fitted = Model.power ~delta ~alpha ~p in
        if Model.is_increasing_on fitted qmax then Some fitted else None
      else None
  | _ -> None

let run ?cache ?(source = Engine.Oracle) ?(deadline = Engine.Wait_all)
    ?(refit = Off) ?(refit_window = 8) ?(metrics = Metrics.disabled) ?scratch
    ?source_shift ?model_shift rng ~problem ~selection truth =
  if Ground_truth.size truth <> problem.Problem.elements then
    invalid_arg "Adaptive.run: ground truth size mismatch";
  check_refit_policy ~refit ~refit_window;
  Engine.check_source ~caller:"Adaptive.run" source;
  Option.iter
    (fun (_, shifted) -> Engine.check_source ~caller:"Adaptive.run" shifted)
    source_shift;
  Engine.check_deadline ~caller:"Adaptive.run" deadline;
  (* Adaptive instruments (all simulated quantities; recording is a
     no-op branch when the registry is disabled, so the default run is
     bit-identical to a metrics-free one). *)
  let m_refits = Metrics.counter metrics ~section:"adaptive" "refits" in
  let m_replans_on_drift =
    Metrics.counter metrics ~section:"adaptive" "replans_on_drift"
  in
  let m_drift = Metrics.counter metrics ~section:"adaptive" "drift_detected" in
  let m_residual =
    Metrics.histogram metrics ~section:"adaptive" "fit_residual_rms_seconds"
      ~buckets:residual_bucket_spec
  in
  let model = ref problem.Problem.latency in
  let current_source = ref source in
  let scratch =
    match (scratch, source, source_shift) with
    | Some _, _, _ | None, Engine.Oracle, None -> scratch (* oracle: unused *)
    | None, _, _ -> Some (Platform.scratch ())
  in
  (* Every replan shares one plan cache: the first solve (at the full
     collection) builds the tables, the shrinking-c0 replans reuse them
     (the cache is valid for any c0 at or below its capacity). Cached
     solves are bit-identical to fresh ones, so accepting a caller's
     cache cannot change the result. A re-fit that installs a different
     model invalidates the cache on the next solve automatically (the
     cache keys on [Model.equal]), which is exactly the re-plan the
     closed loop wants. *)
  let cache = match cache with Some c -> c | None -> Tdp.Cache.create () in
  let q = Query.create ~selection ~budget:problem.Problem.budget truth in
  let replans = ref 0 in
  let refits = ref 0 in
  let drift_detected = ref 0 in
  let replans_on_drift = ref 0 in
  (* The model installed by the last On_drift re-fit, pending its first
     solve: that solve is the drift-triggered re-plan. *)
  let drift_replan_pending = ref false in
  (* Most-recent-first observation window, truncated to [refit_window].
     [observations] keeps every recorded point (newest first), surviving
     window truncation and the post-install clearing — the audit trail
     the regression tests read. *)
  let window = ref [] in
  let observations = ref [] in
  let rounds_since_refit = ref 0 in
  let install fitted =
    incr refits;
    Metrics.incr m_refits;
    model := fitted
  in
  (* Closed-loop bookkeeping: collect the observation, test the current
     model against the recent window, re-fit when the policy says so.
     All of it is pure arithmetic on already-drawn values — no rng
     draws — so [Off] skips it without changing any draw. *)
  let observe batch_size seconds =
    let obs = { Estimate.batch_size; seconds } in
    observations := obs :: !observations;
    window := take refit_window (obs :: !window)
  in
  let refit_step posted observed =
    match refit with
    | Off -> ()
    | Every_k_rounds k ->
        observe posted observed;
        incr rounds_since_refit;
        if !rounds_since_refit >= k then begin
          match attempt_refit ~qmax:problem.Problem.budget !model !window with
          | Some fitted ->
              rounds_since_refit := 0;
              install fitted
          | None -> ()
        end
    | On_drift threshold ->
        observe posted observed;
        let rms = Estimate.residual_rms !model !window in
        Metrics.observe m_residual rms;
        let rel = rms /. Float.max (mean_seconds !window) 1e-9 in
        if rel > threshold then begin
          incr drift_detected;
          Metrics.incr m_drift;
          (* Re-fit on the disagreeing points only: the window may
             straddle the shift, and pre-shift observations agree with
             the current model, so the points that violate the threshold
             individually are the new regime's evidence. *)
          let fresh =
            List.filter
              (fun { Estimate.batch_size; seconds } ->
                Float.abs (Model.eval !model batch_size -. seconds)
                /. Float.max seconds 1e-9
                > threshold)
              !window
          in
          let fitted =
            match attempt_refit ~qmax:problem.Problem.budget !model fresh with
            | Some _ as f -> f
            | None ->
                attempt_anchored_refit ~qmax:problem.Problem.budget !model fresh
          in
          match fitted with
          | Some fitted ->
              if not (Model.equal fitted !model) then
                drift_replan_pending := true;
              install fitted;
              (* Drop the window: its points were judged against the
                 replaced model, and the old regime's observations would
                 read as fresh drift under the new one — keeping them
                 makes the detector oscillate between regimes. *)
              window := []
          | None -> ()
        end
  in
  let continue_ = ref true in
  while !continue_ do
    (match source_shift with
    | Some (k, shifted) when Query.rounds q = k -> current_source := shifted
    | _ -> ());
    (match model_shift with
    | Some (k, shifted) when Query.rounds q = k -> model := shifted
    | _ -> ());
    (* Re-plan for the actual state; the suffix of the previous plan is
       only optimal for its worst case, this is optimal for reality.
       Adaptive re-planning has no fixed horizon: phase-split selectors
       see the current plan's length. *)
    match Query.replan ~cache q !model with
    | None -> continue_ := false
    | Some (budget, horizon) ->
        incr replans;
        if !drift_replan_pending then begin
          drift_replan_pending := false;
          incr replans_on_drift;
          Metrics.incr m_replans_on_drift
        end;
        let round = Query.select q rng ~budget ~horizon in
        let posted = Query.posted round in
        if posted = 0 then continue_ := false
        else begin
          (* Adaptive never pads: distinct = posted. Cut-off questions
             are simply dropped: the next round's re-plan and
             re-selection subsume any carry-forward. *)
          let outcome =
            Engine.answer_pairs ?scratch ~metrics rng ~source:!current_source
              ~deadline ~latency_model:!model truth (Query.dag q)
              (Query.questions round) ~posted
          in
          ignore (Query.absorb q round outcome);
          (* The refit window must see the platform's honest measurement,
             not the deadline-clipped round cost: when a deadline fires,
             [round_seconds] is pinned to the cutoff (under [Quantile] it
             literally equals the current model's own prediction), so a
             supply crash would read as a perfectly calibrated platform
             and the drift detector would go blind exactly when it
             matters. [observed_seconds] is the platform's
             [last_completion] — the time of the last answer that
             actually counted, never clipped. The clipped value still
             prices the round for [total_latency] and the trace: the
             caller really did stop waiting at the deadline. *)
          refit_step posted outcome.Engine.observed_seconds
        end
  done;
  {
    engine_result = Query.finish q;
    replans = !replans;
    refits = !refits;
    drift_detected = !drift_detected;
    replans_on_drift = !replans_on_drift;
    final_model = !model;
    observations = !observations;
  }

type aggregate = {
  engine_aggregate : Engine.aggregate;
  total_replans : int;
  total_refits : int;
  total_drift_detected : int;
  total_replans_on_drift : int;
}

let replicate ?(jobs = 1) ?source ?deadline ?refit ?refit_window ?source_shift
    ?model_shift ~runs ~seed ~problem ~selection () =
  if runs < 1 then invalid_arg "Adaptive.replicate: runs < 1";
  if jobs < 1 then invalid_arg "Adaptive.replicate: jobs < 1";
  let t0 = Crowdmax_obs.Clock.now () in
  (* Every run replans the same problem family, so the runs of a chunk
     share one plan cache (and one platform scratch): cached solves
     equal fresh solves bit-for-bit, so the aggregate stays
     bit-identical for every [jobs]. *)
  let results =
    Engine.map_chunked ~jobs
      ~init:(fun () -> (Tdp.Cache.create (), Platform.scratch ()))
      (fun (cache, scratch) rng ->
        let truth = Ground_truth.random rng problem.Problem.elements in
        run ~cache ?source ?deadline ?refit ?refit_window ?source_shift
          ?model_shift ~scratch rng ~problem ~selection truth)
      (Engine.per_run_rngs ~runs ~seed)
  in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 results in
  {
    engine_aggregate =
      Engine.aggregate_results ~runs
        ~timing:(Engine.make_timing ~jobs ~runs t0)
        (Array.map (fun r -> r.engine_result) results);
    total_replans = sum (fun r -> r.replans);
    total_refits = sum (fun r -> r.refits);
    total_drift_detected = sum (fun r -> r.drift_detected);
    total_replans_on_drift = sum (fun r -> r.replans_on_drift);
  }
