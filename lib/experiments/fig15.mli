(** Fig. 15: running time of tDP itself.

    Wall-clock of [Tdp.solve] for c0 in {250, 500, 1000, 2000} and
    budgets 2x..16x the collection size. The paper's observations: the
    curve is nearly flat in the budget (state pruning) but grows ~4x
    when c0 doubles (the O(c0^2 b) bound bites in c0). Here the
    round-count bound makes the DP itself nearly free for the linear
    model, so the curve is flat in the budget and its ~4x per doubling
    comes from the O(c0^2) unconstrained-table build. *)

type point = {
  elements : int;
  budget_multiple : int;
  seconds : float;  (** best-of cold solve: tables built from scratch *)
  warm_seconds : float;
      (** best-of re-solve against a plan cache primed over the whole
          budget sweep of this [elements] — the per-solve cost every
          call after a sweep's first actually pays *)
  states_visited : int;  (** of the cold solve *)
}

type t = { points : point list }

val run : ?repeats:int -> ?sizes:int list -> unit -> t
(** [repeats] timing repetitions per point (default 3, best-of). *)

val print : t -> unit
(** Two grids: cold solve times, then warm (cached) re-solve times, in
    milliseconds. *)
