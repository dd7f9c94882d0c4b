(** A discrete-event simulator of an MTurk-like crowdsourcing platform.

    This is the substitution for live Amazon Mechanical Turk (see
    DESIGN.md). A batch of [q] questions is posted; workers discover it
    through the browse/search interface and arrive over time — more and
    faster for bigger (more visible) batches, with a thin tail of late
    arrivals so every batch eventually finishes. An arrived worker picks
    up questions one at a time, spends a log-normal service time on
    each, and leaves after a geometric number of answers (task
    switching, Sec. 6.6).

    The emergent time-to-last-answer curve has the Fig. 11(a) shape:
    cheap small batches, growth past the point where questions outnumber
    active workers, and a slight dip for very large batches whose
    visibility attracts disproportionately many workers. *)

type config = {
  post_overhead : float;
      (** seconds before any worker can see the batch (publishing,
          indexing, first page views) *)
  base_rate : float;  (** worker arrivals/second independent of size *)
  attract_per_question : float;
      (** extra arrivals/second per unit of batch visibility *)
  visibility_exponent : float;
      (** visibility = q^e; slightly superlinear (> 1) reproduces the
          large-batch dip of Fig. 11(a) *)
  burst_seconds : float;
      (** how long the batch stays near the top of the task list *)
  tail_rate : float;  (** arrivals/second after the burst; must be > 0 *)
  patience_mean : float;
      (** mean questions a worker answers before switching away *)
  service : Worker.service_model;
  diurnal_amplitude : float;
      (** 0 = steady pool (default). In (0, 1): worker arrival rates are
          modulated by [1 + a * sin(2 pi (t + phase) / period)] — the
          paper's "availability in different times during the day". *)
  diurnal_period : float;  (** seconds per day-cycle *)
  diurnal_phase : float;
      (** seconds into the cycle at posting time; phase [period/4] posts
          at peak availability, [3*period/4] at the trough *)
}

val default_config : config
(** Calibrated so the Sec. 6.1 estimation pipeline recovers a linear fit
    close to the paper's [L(q) = 239 + 0.06 q]. *)

type t

val create : ?config:config -> unit -> t
(** Validates every field and raises [Invalid_argument] naming the
    first bad one — loudly at construction, not silently inside the
    event loop:
    - [post_overhead], [base_rate], [attract_per_question],
      [visibility_exponent] and [burst_seconds] must be finite and
      [>= 0];
    - [tail_rate] must be finite and [> 0];
    - [patience_mean] must be finite and [>= 1] (a sitting answers at
      least one question);
    - [service.sigma] must be finite and [>= 0], and
      [service.median_seconds] finite and [> 0] ([>= 0] when
      [sigma = 0], a fixed service time);
    - [diurnal_amplitude] must be in [0, 1) (an amplitude at or above 1
      drives the modulation factor [1 + a*sin] negative for part of
      every period, which silently turns the thinning acceptance
      probability in the arrival process negative and freezes the
      stream in the trough), and when the amplitude is positive,
      [diurnal_period] must be finite and > 0 and [diurnal_phase]
      non-NaN. *)

val config : t -> config

type scratch
(** Reusable simulation buffers: the event calendar and the per-query
    progress arrays of the event loop.
    A platform value itself is immutable and freely shared across runs
    and domains; a [scratch] is mutable and must be confined to one
    caller at a time — create one per replication worker and thread it
    through consecutive rounds to make the event loop allocation-free in
    steady state. Optional everywhere: omitting it allocates fresh
    buffers per call. *)

val scratch : unit -> scratch

val draw_patience : Crowdmax_util.Rng.t -> log_q:float -> int
(** One worker sitting's patience: the number of questions the worker
    answers before switching away, geometric on [{1, 2, ...}] with
    success probability [p] and [log_q = Float.log1p (-. p)] (the event
    loops hoist it per batch, with [p = 1 / patience_mean]). Drawn by
    inversion, [1 + floor (log U / log_q)], from exactly one uniform
    [U] on (0, 1]; [p = 1] ([log_q = neg_infinity]) always gives 1.
    Exposed for the distribution tests. *)

val next_arrival : t -> Crowdmax_util.Rng.t -> q:int -> after:float -> float
(** The arrival process alone: the time of the next worker arrival
    strictly after [after] for a [q]-question batch. Arrival rates are
    zero before [config.post_overhead], so the draw starts from
    [max after post_overhead] on both the steady and the diurnal
    (thinning) path — the clamp bounds the diurnal path's rejected
    draws, which previously grew without bound as thinning walked the
    zero-rate interval before the batch was visible. Exposed for
    calibration and for regression tests over the draw budget. *)

type report = {
  latency : float;
      (** seconds from posting until the last answer — or until the
          deadline, when it was hit (the caller waited that long) *)
  last_completion : float;
      (** seconds from posting until the last answer that actually
          arrived — never clipped to the deadline, so an estimator
          observing round times sees what the platform did, not what
          the caller's patience allowed. Equals [latency] when no
          deadline was hit; with zero completions it is the batch's
          visibility time ([post_overhead], deadline-clamped). *)
  completed : int;  (** questions answered by the cutoff *)
  in_flight : int;
      (** questions a worker had picked up whose service time ran past
          the deadline (their answers never count) *)
  unassigned : int;  (** questions no worker ever picked up *)
  deadline_hit : bool;
      (** the event loop was cut off; [completed < q] is possible (but
          an exactly-at-deadline last answer also sets this false) *)
}
(** What a batch run produced. [completed + in_flight + unassigned = q].
    Without a deadline, [completed = q] and [deadline_hit = false]. *)

val simulate :
  ?deadline:float ->
  ?metrics:Crowdmax_obs.Metrics.t ->
  ?scratch:scratch ->
  ?tally:int array ->
  ?on_complete:(int -> float -> unit) ->
  t ->
  Crowdmax_util.Rng.t ->
  int ->
  report
(** Run the event loop for a [q]-question batch: the one-query case of
    {!simulate_shared} ([[|q|]] under [Fifo], with [[|deadline|]] and
    [[|tally|]]), returning its one report.

    [tally] (optional; non-empty when [q > 0]) counts the answers per
    slot: with [w = Array.length tally], the question assigned [i]-th
    (questions go to arriving workers one at a time) credits slot
    [i mod w], and every counted answer adds one to its slot's entry.
    That is the raw-slot layout of a [votes * posted] batch with
    [w = posted]: repetition [i] credits posted question [i mod posted].
    Entries are added to, never reset; slots the caller does not read
    (padding) are credited like any other.

    [on_complete slot time] (optional) observes every counted answer in
    completion order. [slot] is as above, or with no [tally] the
    question's index itself ([0, 1, ...] in assignment order). It is an
    observer for tests of the completion stream: the loop calls it
    only when given, and nothing it does can change the run.

    [deadline] (simulated seconds after posting, default infinity) stops
    the loop at the first event strictly past it: answers already in
    are kept, later ones are neither tallied nor observed, and the
    report says what was cut off. [deadline = infinity] never cuts the
    loop and draws exactly what an uncut run draws. Neither [tally] nor
    [on_complete] changes the rng draws, the reports or the metrics.
    Raises [Invalid_argument] on negative [q], a NaN/non-positive
    [deadline] or an empty [tally] with [q > 0].

    [metrics] (default disabled) records into the ["platform"] section:
    [batches], [events_drained], [worker_arrivals], [completions], the
    [in_flight_peak] high-water mark, and the [arrival_seconds]
    histogram of simulated worker-arrival times. [events_drained]
    counts events the loop {e processed}: exactly the worker arrivals
    that drew from the rng plus the counted completions, so
    [events_drained = worker_arrivals + completions] always. The first
    event past the deadline — observed, but discarded — is not
    processed and not counted, and neither is an arrival falling after
    every question was assigned (it can affect nothing). With [q = 0]
    only [batches] is recorded. All values are simulated quantities —
    deterministic given the rng — and recording never draws from
    [rng], so enabling metrics cannot perturb the simulation. *)

val batch_latency :
  ?deadline:float ->
  ?metrics:Crowdmax_obs.Metrics.t ->
  ?scratch:scratch ->
  t ->
  Crowdmax_util.Rng.t ->
  int ->
  float
(** Time (seconds) from posting a [q]-question batch until the last
    answer returns ([report.latency]). [q = 0] costs just the posting
    overhead. Raises [Invalid_argument] on negative [q]. *)

(** {1 Shared-supply mode}

    One worker marketplace serving several concurrent batches
    ("queries") at once — the concurrent-service substrate. A single
    arrival stream, with rate driven by the {e total} visible question
    count, replaces the independent per-batch streams that calling
    {!simulate} once per query would conjure. *)

type pick_policy =
  | Fifo
      (** each free worker takes the next question of the
          earliest-admitted query that still has unassigned questions;
          draws nothing from the rng *)
  | Proportional
      (** each free worker picks a query with probability proportional
          to its posted size among queries with unassigned questions
          (one [Rng.int] draw; none when only one query qualifies) *)

val simulate_shared :
  ?deadlines:float array ->
  ?metrics:Crowdmax_obs.Metrics.t ->
  ?scratch:scratch ->
  ?tallies:int array array ->
  ?on_complete:(query:int -> int -> float -> unit) ->
  t ->
  Crowdmax_util.Rng.t ->
  pick:pick_policy ->
  int array ->
  report array
(** [simulate_shared t rng ~pick qs] runs one event loop over all of
    [qs] (question counts per query, all posted at time 0) and returns
    one {!report} per query.

    [tallies] (optional; one array per query, non-empty for a
    non-empty query) counts each query's answers per slot exactly as
    {!simulate}'s [tally] does: the question query [j] assigns [i]-th
    credits [tallies.(j).(i mod Array.length tallies.(j))]. Answers
    discarded after a withdrawal are not tallied.

    [on_complete ~query slot time] (optional) observes every counted
    answer in completion order, with the slot defined as in {!simulate}
    ({e within its own query}: with no [tallies], the question's index
    in its query's assignment order). An observer for tests: it cannot
    change the run, and [tallies] changes only the slots it sees.

    A posted batch contributes its full size to the arrival rate until
    its query is withdrawn. {!simulate} {e is} the single-query case
    [[|q|]] under [Fifo], and under [Fifo] with no deadlines k queries
    are draw-for-draw one merged [simulate (sum qs)] batch (no supply
    duplication).

    [deadlines] (per query, default all infinity, each > 0): the first
    event strictly past a query's deadline withdraws it — its
    unassigned questions leave the market and later completions of its
    in-flight questions are discarded, but the {e worker} stays: a
    freed worker with patience left picks up another query's question.
    Discarded questions stay in the withdrawn query's [in_flight]
    bucket, so [completed + in_flight + unassigned = q] holds for every
    query, and summed over queries the three buckets account for every
    posted question. A withdrawn query reports [deadline_hit = true],
    [latency = deadline] and an unclipped [last_completion], exactly
    like {!simulate}. When a withdrawal leaves no query live, the event
    that triggered it is not processed: the run ends there.

    [metrics] (default disabled) records into the ["platform"] section
    the same instruments as {!simulate} ([batches] advances by the
    query count) plus [shared_calls] and, when some question is posted,
    [shared_discarded_answers] — the completions that landed after
    their query's withdrawal. Every processed event is an arrival, a
    counted completion or a discard:
    [events_drained = worker_arrivals + completions +
    shared_discarded_answers].
    Raises [Invalid_argument] on an empty [qs], a negative count, a
    deadlines-length mismatch or a NaN/non-positive deadline. *)
