(** Figs. 12(a)-(b): question selection algorithms compared.

    c0 = 500, budgets 500..8000, combos {tDP, HF} x {Tournament, CT25}.
    Latency under the estimated model (12(a)) and the percentage of runs
    achieving singleton termination (12(b)). The paper finds CT25 buys a
    slight latency edge but loses singleton termination at low budgets,
    while Tournament-formation terminates singleton in every run. *)

type cell = {
  label : string;
  budget : int;
  mean_latency : float;
  singleton_rate : float;
}

type t = { cells : cell list; elements : int }

val run : ?jobs:int -> ?runs:int -> ?seed:int -> ?elements:int -> unit -> t
(** Defaults: 100 runs (as the paper), c0 = 500. *)

val print : t -> unit
