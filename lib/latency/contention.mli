(** Contention-aware latency: L(q, o), the round time of a query
    posting [q] questions while the rest of the fleet keeps [o] raw
    questions in flight on the {e same} worker marketplace (the
    ROADMAP's concurrent-service item; "Dynamic Task Allocation for
    Crowdsourcing Settings" in PAPERS.md).

    Model: under proportional supply sharing a query's drain time is
    driven by the total load, so the foreign load acts like extra
    questions of one's own —

    {v L(q, o) = delta + alpha * (q + beta * o) v}

    where [delta + alpha q] is the solo (base) model fitted by the
    existing {!Estimate} pipeline and [beta] is the single contention
    parameter: how many "own" questions one unit of foreign load costs.
    For a fixed fleet load the whole effect is an intercept shift, so
    {!effective} returns a plain [Model.Linear] — the tDP planner and
    the plan cache (which keys on [Model.equal], so a load change
    invalidates exactly the plans it should) handle it natively.

    Units: [batch_size] is in distinct posted questions (the pinned
    L(q) convention, see {!Engine.deadline_policy}); [other_load] is in
    raw marketplace questions (votes included) — the foreign load is an
    environment property, measured in what the marketplace actually
    sees. *)

type observation = {
  batch_size : int;  (** own distinct posted questions *)
  other_load : int;  (** foreign raw questions sharing the marketplace *)
  seconds : float;  (** observed time-to-last-own-answer *)
}

type t

val create : base:Model.t -> beta:float -> t
(** Raises [Invalid_argument] unless [base] is [Linear] and [beta] is
    finite. (Only the linear family is supported: the intercept-shift
    reduction that keeps {!effective} a plain plannable model is
    specific to it.) *)

val base : t -> Model.t
val beta : t -> float

val equal : t -> t -> bool
(** [Model.equal] on the bases and [Float.equal] on beta. *)

val effective : t -> other_load:int -> Model.t
(** The solo-model view of a loaded marketplace:
    [Linear {delta + alpha*beta*o; alpha}], with the intercept floored
    at the base's own [delta] (a negative fitted [beta] must not
    promise rounds faster than an empty marketplace). Raises
    [Invalid_argument] on negative [other_load]. *)

val fit : base:Model.t -> observation list -> t
(** One-parameter least squares for [beta] with [base] held fixed:
    minimizing the squared residuals gives
    [beta = sum(r_i o_i) / (alpha sum o_i^2)] with
    [r_i = seconds_i - eval base q_i]. The base comes from the solo
    {!Estimate.fit_linear} calibration; this adds contention on top.
    Raises [Invalid_argument] if the base is not [Linear] with a
    positive slope, on negative/non-finite observations, if no
    observation carries a foreign load, or on a degenerate fit. *)
