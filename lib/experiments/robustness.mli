(** Beyond the paper: how the end-to-end MAX pipeline degrades with
    worker error, and how much RWL repetition buys back.

    The paper assumes the RWL delivers correct answers and cites [10,
    12, 13, ...] for how; this experiment closes the loop by sweeping
    the raw worker error rate against the repetition factor and
    measuring the correct-MAX rate and the mean latency of the full
    tDP + Tournament pipeline on the simulated platform. *)

type cell = {
  error_rate : float;
  votes : int;
  correct_rate : float;
  mean_latency : float;
}

type t = { cells : cell list; elements : int; budget : int }

val error_rates : float list
(** 0.05, 0.1, 0.2, 0.3. *)

val vote_counts : int list
(** 1, 3, 5. *)

val run :
  ?jobs:int -> ?runs:int -> ?seed:int -> ?elements:int -> ?budget:int -> unit -> t
(** Defaults: 20 runs, c0 = 100, b = 800. *)

val print : t -> unit
(** Two tables: the correct-MAX rate and the mean latency of each cell. *)
