(** Latency functions L(q) (Def. 3): the time to get back all answers
    when [q] questions are posted in a single round.

    The paper's experiments use [L(q) = 239 + 0.06 q] (fitted on MTurk,
    Sec. 6.1) and the generalized [L(q) = delta + alpha * q^p]
    (Sec. 6.6). [Piecewise] interpolates an empirical curve such as
    Fig. 11(a)'s measurements; [Custom] admits anything. All models must
    be non-decreasing in [q] — that is the only assumption the theory
    (Sec. 4.1) needs — and [is_increasing_on] lets tests check it. *)

type t =
  | Linear of { delta : float; alpha : float }
      (** [delta + alpha * q] seconds. *)
  | Power of { delta : float; alpha : float; p : float }
      (** [delta + alpha * q^p] seconds. *)
  | Piecewise of (int * float) array
      (** Sorted [(q, seconds)] knots; linear interpolation between
          knots, flat extrapolation before the first and linear (last
          segment slope) after the last. *)
  | Custom of (int -> float)
      (** Anything. The planner evaluates it during its search, each
          batch size once per plan cache; it may itself call
          [Tdp.solve], but not through the plan cache it is being
          planned with ([Invalid_argument]). *)

val eval : t -> int -> float
(** [eval l q] for [q >= 0]. Raises [Invalid_argument] on negative [q]
    or an empty [Piecewise]. *)

val paper_mturk : t
(** The fitted MTurk function from Sec. 6.1: [239 + 0.06 q]. *)

val linear : delta:float -> alpha:float -> t
(** Validating constructor for {!Linear}: raises [Invalid_argument] on a
    NaN/infinite parameter, naming the offending field — a degenerate
    least-squares fit must fail here, before it can poison a planner
    table. *)

val power : delta:float -> alpha:float -> p:float -> t
(** Validating constructor for {!Power}; same finiteness contract as
    {!linear}. *)

val piecewise : (int * float) array -> t
(** Validating constructor for {!Piecewise} — always prefer it over the
    bare variant. Raises [Invalid_argument] if the knot array is empty,
    any batch size is negative, the x-coordinates are not strictly
    increasing (a duplicate x makes [eval] divide by zero and return
    NaN; unsorted knots break the interpolation search), or any latency
    is NaN/infinite. The array is copied. *)

val equal : t -> t -> bool
(** Typed structural equality, the plan-cache invalidation test:
    float parameters compare with [Float.equal] and piecewise knots
    pointwise, so equal models evaluate identically everywhere;
    [Custom] models are equal only when physically the same closure
    (a conservative answer — distinct closures computing the same
    function compare unequal). *)

val per_round_overhead : t -> float
(** [eval t 0] — the cost of merely opening a round. *)

val is_increasing_on : t -> int -> bool
(** [is_increasing_on l qmax] checks [eval l q <= eval l (q+1)] for all
    [q] in [0, qmax), with a single [eval] per step. *)

val first_decrease : t -> int -> int option
(** [first_decrease l qmax] is the smallest [q] in [0, qmax) with
    [eval l q > eval l (q+1)], or [None] if the model is non-decreasing
    on the range — the diagnosable form of {!is_increasing_on}. Raises
    [Invalid_argument] on negative [qmax]. *)

val check_increasing_on : t -> int -> unit
(** Like {!is_increasing_on} but raises [Invalid_argument] naming the
    first violating [q] and the two latencies, so a misconfigured
    model is diagnosable from the error message alone. *)

val pp : Format.formatter -> t -> unit
