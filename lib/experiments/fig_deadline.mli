(** Deadline sweep (companion experiment, not a paper figure): mean and
    p95 latency vs correct rate under per-round [Engine.Quantile]
    deadlines crossed with straggler policies, against the paper's
    [Wait_all] baseline. Quantifies the latency/accuracy trade the
    deadline machinery buys. *)

module Engine = Crowdmax_runtime.Engine

type cell = {
  deadline : Engine.deadline_policy;
  straggler : Engine.straggler_policy;
  mean_latency : float;
  p95_latency : float;
  correct_rate : float;
  singleton_rate : float;
}

type t = { cells : cell list; elements : int; budget : int; runs : int }

val run :
  ?jobs:int ->
  ?runs:int ->
  ?seed:int ->
  ?elements:int ->
  ?budget:int ->
  ?votes:int ->
  unit ->
  t
(** Replicated simulated-source runs over the policy grid:
    [Wait_all] plus quantiles 0.99/0.95/0.9/0.75/0.5, each under both
    [Drop] and [Carry_forward]. Deterministic for fixed [seed] and any
    [jobs]. *)

val print : t -> unit
