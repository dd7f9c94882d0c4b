(** The seed tDP solvers: plain, slow and independent of the flat-arena
    {!Crowdmax_core.Tdp.solve}. They are test oracles and the bench's
    top-down vs bottom-up ablation, not part of the library. Each raises
    [Invalid_argument] if the latency model evaluates to a non-finite
    value at a batch size it touches. *)

val unconstrained_table :
  Crowdmax_latency.Model.t -> int -> float array * int array
(** [unconstrained_table model c0] is the seed solver's eager table:
    index [c] holds [OL(c, choose2 c)] and its first argmin under
    strict [<] over [c' = 1 .. c-1], by a plain O(c0²) scan. The
    {!Crowdmax_core.Tdp.Cache.ub_entry} values match bit for bit. *)

val solve_hashtbl : Crowdmax_core.Problem.t -> Crowdmax_core.Tdp.solution
(** The pre-arena solver: boxed [Hashtbl] memo over [(int * int)] keys,
    recursive [ol], no round-count bound. Same sequence, latency bits
    and questions as [Tdp.solve]; its [states_visited] is the memo size,
    an upper bound on [Tdp.solve]'s. *)

val solve_bottom_up : Crowdmax_core.Problem.t -> Crowdmax_core.Tdp.solution
(** Fills the full [b x c0] table (no top-down pruning); same optimum,
    much slower on big budgets. Intended for small instances. *)

val brute_force : Crowdmax_core.Problem.t -> Crowdmax_core.Tdp.solution
(** Exhaustive enumeration of all feasible sequences. Exponential; raises
    [Invalid_argument] when [elements > 14]. *)
