(** The MinLatency problem instance (Problem 1, Sec. 2.2).

    Find the MAX of [elements] items by pairwise comparisons, spending at
    most [budget] questions overall, minimizing total latency under the
    platform's latency function. *)

type t = {
  elements : int;  (** c0: initial collection size, >= 1 *)
  budget : int;  (** b: max questions over all rounds *)
  latency : Crowdmax_latency.Model.t;
}

val create :
  elements:int -> budget:int -> latency:Crowdmax_latency.Model.t -> t
(** Raises [Invalid_argument] if [elements < 1], [budget < 0], or the
    instance is infeasible per Theorem 1 ([budget < elements - 1]). *)

val is_feasible : elements:int -> budget:int -> bool
(** Theorem 1: a solution exists iff [budget >= elements - 1]. *)

val min_budget : elements:int -> int
(** [elements - 1]: every non-MAX element must lose at least once. *)

val max_useful_budget : elements:int -> int
(** [choose2 elements]: across any tournament-graph sequence each
    unordered pair meets at most once, so no plan can spend more. *)

val pp : Format.formatter -> t -> unit
