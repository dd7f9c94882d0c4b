(** Beyond the paper: five ablation and extension tables.

    In order, each after a blank line:
    - adaptive re-planning tDP vs the static tDP schedule (tournament
      selection, four (c0, b) pairs; [runs] runs each, seed 3);
    - the CT split point: latency, singleton and correct-MAX rates of
      every selector under the tDP allocation at c0 = 500, b = 4000
      ([runs] runs, seed 7);
    - top-k by successive MAX with answer reuse vs k naive independent
      MAX runs ([max 3 (runs / 5)] trials per row, seed 5);
    - SORT in rounds: three strategies at n = 40 under an
      overhead-heavy and a question-heavy L (one run each, seed 11);
    - posting time on a diurnal platform: one 80-question batch at the
      availability peak, mid-cycle and trough ([max 10 runs] batches,
      seed 13).

    The tables carry column headers but no titles. Every simulated
    number comes from the seeds above, so the output is a function of
    [runs] alone and bit-identical for every [jobs]. *)

val print : ?jobs:int -> ?runs:int -> unit -> unit
(** Runs and prints the five tables. Defaults: [jobs = 1],
    [runs = 30]. Raises [Invalid_argument] if [runs < 1]. *)
