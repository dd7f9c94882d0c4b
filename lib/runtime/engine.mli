(** The MAX-operator execution engine (Sec. 1-2).

    Home of {!Query}, the per-query round state machine every driver
    (this engine, [Adaptive], the query server) runs. The engine drives
    it with a fixed allocation: take the next round budget from the
    allocation vector, let the question-selection algorithm pick the
    round's questions among the surviving candidates, obtain answers (from the
    error-free oracle, or from the simulated platform through the RWL),
    fold them into the answer DAG, and advance the winners. Stops early
    as soon as a single candidate remains; if the vector runs out with
    several candidates left (no singleton termination), the
    highest-scoring candidate is returned as the best guess.

    Latency accounting follows the paper: a round that posts [q]
    questions costs [L(q)]. Budget allocators other than tDP "always use
    the whole budget" (Sec. 6.5), so when a selector cannot produce
    enough distinct useful pairs the engine pads the round with redundant
    questions — they are still posted, still cost latency, but add no
    information. [pad_to_round_budget = false] disables this for
    ablations. *)

type answer_source =
  | Oracle
      (** error-free workers: every question is answered truthfully and
          instantly by the ground truth; latency comes from the model *)
  | Simulated of {
      platform : Crowdmax_crowd.Platform.t;
      rwl : Crowdmax_crowd.Rwl.config;
    }
      (** the discrete-event platform answers (with worker errors) and
          the RWL cleans them up; round latency is the simulated batch
          completion time of all [votes * q] raw questions *)

type deadline_policy =
  | Wait_all
      (** block until every raw question of the round is answered — the
          paper's (and this engine's historical) behavior. Keeps rng
          draw order and therefore aggregates bit-identical to the
          pre-deadline engine. *)
  | Fixed of float
      (** cut every round off [d] simulated seconds after posting
          (must be > 0) *)
  | Quantile of float
      (** [Quantile p], [p] in (0, 1]: cut the round off at the latency
          model's predicted completion time of the ceil(p * posted)-th
          posted question — wait for the modeled p-th completion
          instead of the tail-dominated last one. [posted] counts
          {e distinct posted questions}, the one q-unit every consumer
          of L(q) uses (planner budgets, the Oracle path, the adaptive
          refit window); the [votes ×] repetition a simulated source
          posts is an environment property absorbed into the fitted
          model, never an argument to it. *)

type straggler_policy =
  | Drop  (** forget questions that got zero votes by the deadline *)
  | Carry_forward
      (** repost them in later rounds, ahead of the selector's picks,
          for as long as both elements remain candidates *)
  | Reissue of int
      (** like [Carry_forward] but each question is reposted at most
          that many times ([Reissue 0] = [Drop]) *)

type config = {
  allocation : Crowdmax_core.Allocation.t;
  selection : Crowdmax_selection.Selection.t;
  latency_model : Crowdmax_latency.Model.t;
      (** used for latency whenever [answer_source = Oracle], and for
          deriving [Quantile] deadlines *)
  source : answer_source;
  pad_to_round_budget : bool;
  deadline : deadline_policy;
      (** per-round answer-collection cutoff. Only meaningful for the
          simulated sources: the [Oracle] answers instantly from the
          ground truth, so there is nothing to cut off. *)
  straggler : straggler_policy;
      (** what happens to questions with zero received votes when a
          finite deadline cuts a round off *)
}

val config :
  ?source:answer_source ->
  ?pad_to_round_budget:bool ->
  ?deadline:deadline_policy ->
  ?straggler:straggler_policy ->
  allocation:Crowdmax_core.Allocation.t ->
  selection:Crowdmax_selection.Selection.t ->
  latency_model:Crowdmax_latency.Model.t ->
  unit ->
  config
(** Defaults: [Oracle] source, padding on, [Wait_all], [Drop]. Raises
    [Invalid_argument "Engine.config: votes < 1"] for a [Simulated]
    source asking fewer than one vote per question
    (see {!check_source}). *)

val plan_config :
  ?metrics:Crowdmax_obs.Metrics.t ->
  ?cache:Crowdmax_core.Tdp.Cache.t ->
  ?source:answer_source ->
  ?pad_to_round_budget:bool ->
  ?deadline:deadline_policy ->
  ?straggler:straggler_policy ->
  problem:Crowdmax_core.Problem.t ->
  selection:Crowdmax_selection.Selection.t ->
  unit ->
  config
(** Solve the problem with tDP and build a {!config} around the optimal
    allocation and the problem's latency model — the planner-to-engine
    hand-off every driver repeats. [metrics] and [cache] go to
    {!Crowdmax_core.Tdp.solve}: a shared cache makes a budget or
    collection-size sweep of configs pay the table build once.
    Remaining optionals default as in {!config}. *)

val check_source : caller:string -> answer_source -> unit
(** The vote-count check every driver runs at construction: raises
    [Invalid_argument "<caller>: votes < 1"] for a simulated source
    whose RWL config asks fewer than one vote per question,
    before any round posts it. [Oracle] always passes. *)

val check_deadline : caller:string -> deadline_policy -> unit
(** The one deadline-policy check every driver runs at construction.
    Raises [Invalid_argument] with the message
    ["<caller>: Fixed deadline must be > 0"] for a [Fixed] deadline not
    > 0 (or NaN), and ["<caller>: Quantile must be in (0, 1]"] for a
    [Quantile] outside (0, 1] (or NaN). *)

type round_record = {
  round_index : int;
  round_budget : int;
  distinct_questions : int;  (** informative questions posted *)
  padded_questions : int;  (** redundant filler posted *)
  candidates_before : int;
  candidates_after : int;
  round_latency : float;
  unanswered_questions : int;
      (** distinct questions cut off with zero received votes (0 under
          [Wait_all]) *)
  reissued_questions : int;
      (** carried straggler questions reposted this round (0 under
          [Wait_all] / [Drop]) *)
  deadline_hit : bool;  (** the round's deadline cut the event loop *)
}

type result = {
  chosen : int;  (** the element returned as the MAX *)
  correct : bool;  (** equals the true MAX *)
  singleton : bool;  (** exactly one candidate remained (Sec. 4) *)
  rounds_run : int;
  questions_posted : int;  (** distinct + padded over all rounds run *)
  total_latency : float;
  trace : round_record list;  (** in round order *)
}

val round_deadline :
  deadline:deadline_policy ->
  latency_model:Crowdmax_latency.Model.t ->
  posted:int ->
  float option
(** The per-round cutoff a policy imposes, if any: [None] for
    [Wait_all], the fixed value for [Fixed], and for [Quantile p] the
    latency model evaluated at [max 1 (ceil (p * posted))] — [posted]
    in {e distinct posted questions}, the pinned L(q) unit convention
    (see {!deadline_policy}). Exposed for drivers that run the platform
    themselves (the query server) and for unit-convention regression
    tests. *)

type round_outcome = {
  round_seconds : float;
      (** what the round cost the caller: the simulated batch completion
          time, clipped to the deadline when one was hit (or the latency
          model's prediction under [Oracle]) *)
  observed_seconds : float;
      (** the platform's actual last-completion time, never
          deadline-clipped ({!Crowdmax_crowd.Platform.report}'s
          [last_completion]) — the honest measurement an L(q) estimator
          should see; equals [round_seconds] when no deadline was hit *)
  answered : int;  (** answers recorded into the DAG *)
  unanswered : (int * int) list;
      (** distinct questions cut off with zero received votes *)
  round_deadline_hit : bool;
}

val answer_pairs :
  ?scratch:Crowdmax_crowd.Platform.scratch ->
  ?metrics:Crowdmax_obs.Metrics.t ->
  Crowdmax_util.Rng.t ->
  source:answer_source ->
  deadline:deadline_policy ->
  latency_model:Crowdmax_latency.Model.t ->
  Crowdmax_crowd.Ground_truth.t ->
  Crowdmax_graph.Answer_dag.t ->
  Crowdmax_util.Pairs.t ->
  posted:int ->
  round_outcome
(** Answer one round's questions — the buffer's pairs, all informative;
    [posted] is their count plus any padding — and fold the answers
    into the DAG: the answer step of every round {!Query} drives,
    shared by [run] and the adaptive runtime so both obtain answers and
    {e observed round seconds} through one draw schedule. The oracle
    reads each pair and writes its answer straight into the DAG; a
    simulated source resolves the votes with
    {!Crowdmax_crowd.Rwl.resolve_into} into per-domain answer buffers.
    Under [Wait_all] the rng is consumed RWL-votes-first then platform,
    the historical order the golden aggregates pin; a finite deadline
    runs platform-first (platform report, then {!resolve_votes}).
    Callers are responsible for policy validation ([run] does it via
    its config check) and for padding semantics. The buffer is only
    read. *)

val answer_round :
  ?scratch:Crowdmax_crowd.Platform.scratch ->
  ?metrics:Crowdmax_obs.Metrics.t ->
  Crowdmax_util.Rng.t ->
  source:answer_source ->
  deadline:deadline_policy ->
  latency_model:Crowdmax_latency.Model.t ->
  Crowdmax_crowd.Ground_truth.t ->
  Crowdmax_graph.Answer_dag.t ->
  (int * int) list ->
  distinct:int ->
  posted:int ->
  round_outcome
(** The list view of {!answer_pairs}, kept for callers that build
    rounds as lists (the benchmark's traced replicas): the questions go
    into a fresh buffer, in list order. [distinct] is the list's
    length and is not read. *)

val resolve_votes :
  Crowdmax_util.Rng.t ->
  Crowdmax_crowd.Rwl.config ->
  truth:Crowdmax_crowd.Ground_truth.t ->
  Crowdmax_graph.Answer_dag.t ->
  Crowdmax_util.Pairs.t ->
  int array ->
  Crowdmax_crowd.Platform.report ->
  round_outcome
(** [resolve_votes rng rwl ~truth dag questions counts report] finishes
    the vote step of a round the platform cut off by [report]:
    {!Crowdmax_crowd.Rwl.resolve_into} with [~votes_received:counts]
    decides each question of the buffer over the votes that arrived,
    the answers go into [dag], and the outcome prices the round at the
    report's (deadline-clipped) latency with its unclipped
    [last_completion] as observed seconds; questions with no vote come
    back as [unanswered]. [answer_pairs]' deadline path and the query
    server both end their rounds here. *)

(** One query's round state machine: the single implementation of the
    paper's MAX loop that every driver runs. Each round is [replan]
    (adaptive drivers) or a fixed budget (the engine), then [select],
    an answer step ({!answer_pairs}, or the server's shared platform
    plus {!resolve_votes}), then [absorb]; [finish] picks the MAX.
    Drivers own their stop rule, their instruments and their answer
    source.

    Draw-order contract: the machine draws from the rng only inside
    [select] (the selector's own draws), so a driver's schedule is its
    sequence of [select] and answer-step calls. *)
module Query : sig
  type t
  (** Mutable per-query state: ground truth, answer DAG, remaining
      budget, round index, questions posted, latency sum, deadline hits,
      the newest-first trace and the straggler queue. *)

  val create :
    ?edge_capacity:int ->
    ?span:Crowdmax_obs.Metrics.span ->
    ?pad:bool ->
    ?straggler:straggler_policy ->
    selection:Crowdmax_selection.Selection.t ->
    budget:int ->
    Crowdmax_crowd.Ground_truth.t ->
    t
  (** A fresh query over the ground truth's elements with [budget]
      questions to spend. [edge_capacity] preallocates the DAG's edge
      pool; [span] times every selector call (default: none); [pad]
      (default [false]) pads short rounds up to their budget;
      [straggler] (default [Drop]) decides which cut-off questions are
      carried into later rounds. The answer DAG is taken from the
      calling domain's free list ({!Crowdmax_graph.Answer_dag.reset})
      when it holds one, else created. *)

  val pool_cap : int
  (** The most DAGs a domain's free list retains (8: a fleet of 8
      concurrent queries recycles all of its DAGs). *)

  val pooled : unit -> int
  (** DAGs the calling domain's free list holds now; at most
      [pool_cap]. *)

  val truth : t -> Crowdmax_crowd.Ground_truth.t

  val dag : t -> Crowdmax_graph.Answer_dag.t
  (** The query's answer DAG; valid until [finish]. *)

  val rounds : t -> int
  (** Rounds absorbed so far — the next round's index. *)

  val latency : t -> float
  (** Sum of absorbed rounds' [round_seconds]. *)

  val deadline_hits : t -> int

  val active : t -> bool
  (** At least two candidates remain and the remaining budget covers
      Theorem 1's [c - 1] questions — the state [replan] can plan.

      [dag], [active], [replan], [select], [absorb] and [finish] raise
      [Invalid_argument] on a finished query: its DAG may already
      serve another one. *)

  val replan :
    cache:Crowdmax_core.Tdp.Cache.t ->
    t ->
    Crowdmax_latency.Model.t ->
    (int * int) option
  (** Solve tDP for the live candidates and the remaining budget under
      the given model: [Some (round_budget, horizon)], the plan's first
      round budget (capped by the remaining budget) and the total round
      count it implies ([rounds] so far plus the plan's length — the
      selector's [total_rounds]); [None] when the query is not
      {!active}. *)

  type round
  (** One selected round, between [select] and [absorb]. *)

  val select : t -> Crowdmax_util.Rng.t -> budget:int -> horizon:int -> round
  (** The round's questions: carried stragglers of live pairs first (at
      most [budget]), then the selector's picks for what is left of the
      budget (not called when nothing is left), then — with [pad] —
      redundant padding up to [budget]. [horizon] is the selector's
      [total_rounds]. *)

  val questions : round -> Crowdmax_util.Pairs.t
  (** Distinct questions, carried ones first: the query's own pair
      buffer, which the query's next [select] overwrites. Answer steps
      only read it. *)

  val posted : round -> int  (** distinct plus padding *)

  val absorb : t -> round -> round_outcome -> round_record
  (** Close the round: add its seconds, questions and deadline hit to
      the counters, spend its posted questions from the budget, requeue
      cut-off questions per the straggler policy (pruned to live
      pairs), and push and return its trace record. *)

  val finish : t -> result
  (** The MAX pick: the lone surviving candidate, else the top of
      {!Crowdmax_graph.Scoring.ranked_candidates}. Total: answers only
      ever join two unbeaten candidates and each round's answers are
      conflict-free, so the DAG stays acyclic and a non-empty DAG
      always keeps an unbeaten element to rank. An empty collection
      reports element [0], like
      {!Crowdmax_crowd.Ground_truth.max_element}.

      The query is spent afterwards: its DAG goes back to the calling
      domain's free list (unless that holds [pool_cap] already). *)
end

val runner :
  ?metrics:Crowdmax_obs.Metrics.t ->
  config ->
  Crowdmax_util.Rng.t ->
  Crowdmax_crowd.Ground_truth.t ->
  result
(** [runner cfg] validates policies, registers instruments and
    allocates simulation scratch buffers {e once}, returning a closure
    that behaves exactly like [run ?metrics _ cfg _] on every call —
    same draws, same results — without the per-run setup. Use it for
    tight replication or measurement loops. The returned closure owns
    mutable scratch: do not share one runner across domains (the
    replication entry points below manage per-worker reuse
    themselves). *)

val run :
  ?metrics:Crowdmax_obs.Metrics.t ->
  Crowdmax_util.Rng.t ->
  config ->
  Crowdmax_crowd.Ground_truth.t ->
  result
(** One complete MAX computation. Deterministic given the rng state.

    [metrics] (default disabled) records per-round counters in the
    ["engine"] section ([runs], [rounds_run], [questions_posted] /
    [_distinct] / [_padded] / [_unanswered] / [_reissued],
    [consensus_resolutions], [deadline_hits]), the
    [round_latency_seconds] histogram of simulated round latencies, and
    the [selector_seconds] real-time span; simulated sources also fill
    the ["platform"] section (see {!Crowdmax_crowd.Platform.simulate}).
    Metrics recording never draws from [rng] and never reads the clock
    on the simulated path, so enabling it cannot change the result —
    the golden hex tests pin this.

    With a finite {!deadline_policy} on a simulated source, a round
    stops collecting answers at its deadline: questions with a partial
    vote set are decided by majority (or weighted consensus) over the
    received votes, questions with zero votes are handled per the
    {!straggler_policy}, and [round_latency] is the deadline rather
    than the last completion. Rounds that post zero questions (a
    selector with nothing useful to ask and padding off) still emit a
    zero-latency [round_record], so [trace] is always dense:
    [List.length trace = rounds_run] and record [i] has
    [round_index = i].

    Raises [Invalid_argument] on an invalid policy ([Fixed] deadline
    not > 0, [Quantile] outside (0, 1], negative [Reissue] cap). *)

type timing = {
  jobs : int;  (** domains the replicate call actually used *)
  wall_seconds : float;  (** wall clock of the whole replicate call *)
  runs_per_sec : float;
}
(** Observed throughput of a [replicate] call, so parallel speedups are
    measured rather than asserted. Timing is the only part of an
    aggregate that legitimately varies between identical calls. *)

type aggregate = {
  runs : int;
  mean_latency : float;
  stddev_latency : float;
  median_latency : float;
  p95_latency : float;  (** tail latency across the replicated runs *)
  singleton_rate : float;  (** fraction of runs ending singleton *)
  correct_rate : float;
  mean_questions : float;
  mean_rounds : float;
  timing : timing;
}

val equal_stats : aggregate -> aggregate -> bool
(** Equality of everything except [timing] — the determinism contract:
    [equal_stats (replicate ~jobs:n ...) (replicate ~jobs:1 ...)] holds
    bit-for-bit for any [n] on otherwise-equal arguments. *)

val per_run_rngs : runs:int -> seed:int -> Crowdmax_util.Rng.t array
(** One generator per run, split from [Rng.create seed] in run order.
    Building block for [replicate]-style harnesses that must stay
    deterministic under parallel execution: split first, fan out after. *)

val make_timing : jobs:int -> runs:int -> float -> timing
(** [make_timing ~jobs ~runs t0] closes a timing record opened at
    [t0 = Crowdmax_obs.Clock.now ()]. *)

val aggregate_results : runs:int -> timing:timing -> result array -> aggregate
(** Fold per-run results (in run order) into an aggregate. Raises through
    [Stats] on an empty array. *)

val map_chunked :
  jobs:int ->
  init:(unit -> 'state) ->
  ('state -> Crowdmax_util.Rng.t -> 'a) ->
  Crowdmax_util.Rng.t array ->
  'a array
(** [map_chunked ~jobs ~init f rngs] is [Array.map (f state) rngs]
    fanned out over at most [jobs] domains: the runs split into
    contiguous chunks, each chunk calls [init] once for its own mutable
    state (scratch, plan cache, metrics registry) and maps its runs in
    order, and results come back in run order. The replication
    building block of every driver: results are bit-identical for any
    [jobs] as long as [f]'s result depends only on its rng. Callers
    validate [jobs >= 1] (each with its own message); [jobs] above 128
    raises through {!Crowdmax_util.Parallel.create}. *)

val replicate :
  ?jobs:int ->
  runs:int ->
  seed:int ->
  config ->
  elements:int ->
  aggregate
(** Run [runs] times on fresh random ground truths (seeds derived from
    [seed]) and aggregate — the experiment harness's inner loop.

    [jobs] (default 1) fans the runs out over that many OCaml domains.
    Determinism contract: one rng per run is split from the master seed
    {e sequentially} before anything executes, runs touch no shared
    mutable state, and aggregates fold per-run results in run order — so
    the statistical fields of the result are bit-identical for every
    [jobs] value ({!equal_stats}). Raises [Invalid_argument] if
    [runs < 1] or [jobs < 1]. *)

val replicate_with_metrics :
  ?jobs:int ->
  runs:int ->
  seed:int ->
  config ->
  elements:int ->
  aggregate * Crowdmax_obs.Metrics.snapshot
(** {!replicate}, additionally collecting engine/platform metrics: each
    run records into its own registry (registries must not cross
    domains) and the per-run snapshots are merged in run order. The
    aggregate is bit-identical to [replicate]'s on equal arguments, and
    the merged snapshot minus its [Real_seconds] entries
    ({!Crowdmax_obs.Metrics.simulated_only}) is bit-identical for every
    [jobs] value and across repeat invocations with the same seed. *)
