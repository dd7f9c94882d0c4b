(** Fig. 11(a): estimating L(q) on the (simulated) platform.

    Posts batches of each size [runs_per_size] times, averages the
    time-to-last-answer, and fits [L(q) = delta + alpha q] by least
    squares — the Sec. 6.1 pipeline. The paper measured delta = 239,
    alpha = 0.06 on MTurk; the simulator is calibrated to land nearby
    with the same curve shape. *)

type t = {
  measured : (int * float) array;  (** batch size, mean seconds *)
  fit : Crowdmax_latency.Model.t;  (** the linear estimate *)
  delta : float;
  alpha : float;
}

val run :
  ?runs_per_size:int ->
  ?seed:int ->
  ?platform:Crowdmax_crowd.Platform.t ->
  unit ->
  t
(** Defaults: 20 runs per size (as in the paper), seed 11. Raises
    [Invalid_argument] if [runs_per_size < 1]. *)

val calibrate :
  ?runs_per_size:int -> ?seed:int -> Crowdmax_crowd.Platform.t ->
  Crowdmax_latency.Model.t
(** The same measurement on the short ladder (batch sizes 10 to 320),
    fitted: the solo L(q) calibration an operator runs ahead of time.
    Defaults: 12 runs per size, seed 17. Shared by [Fig_adapt],
    [Fig_server] and the CLI's [serve] subcommand. *)

val print : t -> unit
