(** The query server: many concurrent MAX queries over one shared
    worker marketplace (the ROADMAP's concurrent-service north-star
    item; "Dynamic Task Allocation for Crowdsourcing Settings" in
    PAPERS.md).

    The server admits a deterministic schedule of queries (mixed
    collection sizes, budgets, vote counts and deadline policies) and
    runs a round-synchronized fleet loop: each {e fleet step}, every
    active query re-plans its remaining budget through tDP, selects
    its round's questions, and all batches go to {e one}
    {!Crowdmax_crowd.Platform.simulate_shared} marketplace — a single
    worker arrival stream whose rate sees the fleet's total visible
    load, with workers picking between queries by the configured
    policy. Votes are resolved per query through the RWL exactly like
    the single-query engine; a fleet step lasts as long as its slowest
    round (barrier semantics).

    Contention-aware planning: with a {!Crowdmax_latency.Contention.t}
    the per-query planner evaluates L(q) under the {e other} queries'
    estimated in-flight raw load (previous round's posted size; a
    Theorem-1 floor for fresh queries — one step of lag buys a
    deterministic, order-independent estimate), so as fleet load
    shifts, the effective model changes, [Tdp.Cache] invalidates (it
    keys on [Model.equal]) and the query re-plans — the
    [contention_replans] counter counts exactly those. Without one,
    planning is contention-oblivious: every query uses the solo base
    model. Both arms share the identical solo calibration.

    Determinism: given the rng, everything is a pure simulation. All
    selection draws happen before the platform draw, which happens
    before vote resolution, each in admission order — a fixed
    documented schedule — and {!replicate} aggregates are bit-identical
    for any [jobs] (the {!Crowdmax_runtime.Engine.per_run_rngs}
    contract). *)

type query_spec = {
  label : string;
  elements : int;  (** c0, >= 2 *)
  budget : int;  (** total questions, >= elements - 1 *)
  votes : int;  (** raw repetitions per question, >= 1 *)
  error : Crowdmax_crowd.Worker.error_model;
  deadline : Crowdmax_runtime.Engine.deadline_policy;
      (** per-round answer cutoff. [Quantile] quotes are evaluated per
          step against the {e advertised solo} model (the pinned
          distinct-question convention —
          {!Crowdmax_runtime.Engine.round_deadline}), never the
          planner's internal contention estimate: the requester's
          patience is workload, not planner state, so both planning
          arms quote identical cutoffs for the same posted size. *)
  admit_step : int;
      (** the fleet step this query arrives at, >= 0 and at most
          [max_int - budget - 1]: a query runs at most [budget] rounds
          and a finalizing step after admission, so the fleet's step
          counter can never overflow *)
}

val query_spec :
  ?label:string ->
  ?votes:int ->
  ?error:Crowdmax_crowd.Worker.error_model ->
  ?deadline:Crowdmax_runtime.Engine.deadline_policy ->
  ?admit_step:int ->
  elements:int ->
  budget:int ->
  unit ->
  query_spec
(** Spec constructor with the RWL defaults (3 votes, 10% error),
    [Wait_all], immediate admission. *)

type query_report = {
  label : string;
  chosen : int;
  correct : bool;
  singleton : bool;
  rounds : int;
  questions : int;  (** distinct questions posted *)
  latency : float;
      (** sum of the query's own round latencies (deadline-clipped
          seconds the requester actually waited) *)
  sojourn : float;
      (** fleet-clock seconds from admission to completion — latency
          plus time spent waiting on other queries' slower rounds *)
  admitted_at : float;  (** fleet-clock admission time *)
  deadline_hits : int;
}

type result = {
  queries : query_report array;  (** one per spec, in spec order *)
  steps : int;
      (** fleet steps elapsed, including idle ones spent waiting for a
          later admission (those are counted, not walked: reaching any
          [admit_step] is O(1)) *)
  makespan : float;  (** fleet-clock end time *)
  fleet_mean_latency : float;  (** mean of per-query [latency] *)
  throughput : float;  (** queries per fleet-clock second *)
  fairness : float;
      (** Jain's index over per-query latencies: 1 = equal service,
          1/n = one query absorbed everything *)
  contention_replans : int;
      (** plans solved against a different effective model than the
          query's previous step — the load-shift re-plans *)
}

val run :
  ?metrics:Crowdmax_obs.Metrics.t ->
  ?scratch:Crowdmax_crowd.Platform.scratch ->
  ?contention:Crowdmax_latency.Contention.t ->
  ?pick:Crowdmax_crowd.Platform.pick_policy ->
  platform:Crowdmax_crowd.Platform.t ->
  latency:Crowdmax_latency.Model.t ->
  selection:Crowdmax_selection.Selection.t ->
  Crowdmax_util.Rng.t ->
  query_spec array ->
  Crowdmax_crowd.Ground_truth.t array ->
  result
(** Serve one fleet (one ground truth per spec, in spec order).
    [latency] is the solo planning model; with [?contention] the
    planner uses the contention model instead (its base replaces
    [latency], so both arms calibrate identically). [pick] (default
    [Proportional]) is the marketplace's worker-to-query policy.
    Raises [Invalid_argument] on an empty/invalid spec array (including
    an [admit_step] past [max_int - budget - 1], message
    ["Server.run: admit_step overflows the fleet step counter"]) or
    mismatched truths.

    Every query runs {!Crowdmax_runtime.Engine.Query}, the round
    machine the engine and the adaptive runtime share; the server adds
    admission, the fleet-load estimate, the shared marketplace and the
    barrier clock.

    [metrics] (default disabled) records into the ["server"] section:
    [queries_admitted]/[queries_completed]/[fleet_steps]/[rounds_run]/
    [questions_posted]/[replans]/[contention_replans]/[deadline_hits]
    counters, the [active_queries_peak] high-water mark and the
    [query_latency_seconds] histogram — all simulated quantities,
    deterministic given the rng. *)

type aggregate = {
  runs : int;
  mean_fleet_latency : float;
  mean_makespan : float;
  mean_fairness : float;
  mean_throughput : float;
  correct_rate : float;  (** over runs x queries *)
  singleton_rate : float;
  total_contention_replans : int;
  total_deadline_hits : int;
  per_query_mean_latency : float array;  (** by spec index *)
}

val equal_aggregate : aggregate -> aggregate -> bool
(** Field-by-field with [Float.equal] (NaN-safe) — the any-[jobs]
    bit-identity check. *)

val replicate :
  ?jobs:int ->
  ?contention:Crowdmax_latency.Contention.t ->
  ?pick:Crowdmax_crowd.Platform.pick_policy ->
  platform:Crowdmax_crowd.Platform.t ->
  latency:Crowdmax_latency.Model.t ->
  selection:Crowdmax_selection.Selection.t ->
  runs:int ->
  seed:int ->
  query_spec array ->
  unit ->
  aggregate
(** Aggregate server runs over random per-query ground truths. [jobs]
    fans runs across domains under the standard determinism contract:
    aggregates are bit-identical for any [jobs] (per-run rngs are split
    sequentially, runs chunk contiguously, folds run in run order, and
    every run builds its own plan caches — cached solves equal fresh
    solves bit-for-bit). *)
