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

val batch_sizes : int list
(** 10, 20, 40, ..., 1280 — the paper's x-axis. *)

val run :
  ?runs_per_size:int ->
  ?seed:int ->
  ?platform:Crowdmax_crowd.Platform.t ->
  unit ->
  t
(** Defaults: 20 runs per size (as in the paper), seed 11. Raises
    [Invalid_argument] if [runs_per_size < 1]. *)

val print : t -> unit
