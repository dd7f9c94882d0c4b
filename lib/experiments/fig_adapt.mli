(** Supply-shift recovery (companion experiment, not a paper figure):
    mid-run the simulated platform loses most of its worker supply, and
    three adaptive arms race over the same runs — open-loop with the
    now-stale model, the closed On_drift re-fit loop, and an omniscient
    baseline handed an offline calibration of the slow platform at the
    shift round. Quantifies how much of the stale-to-omniscient latency
    gap the closed loop recovers. *)

module Model = Crowdmax_latency.Model

type arm = {
  label : string;
  mean_latency : float;
  p95_latency : float;
  correct_rate : float;
  refits : int;
  drift_detected : int;
  replans_on_drift : int;
}

type t = {
  elements : int;
  budget : int;
  runs : int;
  shift_round : int;
  shifted_model : Model.t;  (** the offline calibration the omniscient arm gets *)
  stale : arm;
  closed : arm;
  omniscient : arm;
}

val run :
  ?jobs:int ->
  ?runs:int ->
  ?seed:int ->
  ?elements:int ->
  ?budget:int ->
  ?votes:int ->
  ?shift_round:int ->
  ?scale:float ->
  unit ->
  t
(** Replicated simulated-source runs of the three arms over a shared
    supply shift. Deterministic for fixed [seed] and any [jobs]. *)

val recovery : t -> float
(** Fraction of the stale-to-omniscient mean-latency gap the closed arm
    recovers ([1.0] if the gap is degenerate). The acceptance bar is
    [>= 0.5]. *)

val print : t -> unit
