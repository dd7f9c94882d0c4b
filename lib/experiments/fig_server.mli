(** Fig_server: a staggered fleet of concurrent MAX queries served off
    one shared worker marketplace — contention-aware planning (the
    fitted [L(q, o)] of {!Crowdmax_latency.Contention}) against
    contention-oblivious planning (every query uses the solo model).
    Both arms share the same solo calibration, query schedule and
    worker draws; the read-out is the fleet mean latency gap. The
    acceptance bar, enforced by the test suite and the CI smoke, is
    {!improvement}[ > 0]: the aware arm must win. *)

type arm = {
  label : string;
  mean_fleet_latency : float;
  mean_makespan : float;
  mean_fairness : float;
  correct_rate : float;
  contention_replans : int;
  deadline_hits : int;
}

type t = {
  queries : int;
  runs : int;
  base : Crowdmax_latency.Model.t;  (** solo calibration (shared by both arms) *)
  beta : float;  (** fitted contention parameter *)
  oblivious : arm;
  aware : arm;
}

val calibrate_base :
  ?runs_per_size:int -> ?seed:int -> Crowdmax_crowd.Platform.t ->
  Crowdmax_latency.Model.t
(** {!Fig11a.calibrate}: the solo L(q) calibration on the idle
    platform. *)

val calibrate_beta :
  ?runs_per_cell:int -> ?seed:int -> Crowdmax_crowd.Platform.t ->
  Crowdmax_latency.Model.t -> Crowdmax_latency.Contention.t
(** Contention calibration: a two-query shared-supply ladder (own
    batch q alongside a foreign batch o), one-parameter fit of beta on
    top of the fixed solo base. *)

val run :
  ?jobs:int -> ?runs:int -> ?seed:int -> ?calibration_seed:int -> unit -> t
(** Calibrate (solo ladder of 200 batches per size seeded by
    [calibration_seed], default 17; then a two-query shared-supply
    ladder for beta), then serve the six-query staggered fleet under
    both arms. Deterministic given [seed] and [calibration_seed];
    bit-identical for any [jobs]. *)

val improvement : t -> float
(** Fractional fleet-mean-latency saving of the aware arm over the
    oblivious arm ([> 0] means aware wins). *)

val print : t -> unit
