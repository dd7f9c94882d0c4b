(** The hidden true order of the collection (Sec. 2.1).

    Elements are [0..n-1]; a ground truth assigns each a distinct rank
    (higher rank = greater element). The paper's 500 car photos with a
    true price order are modelled by [with_values], which also attaches a
    numeric value per element (used by distance-sensitive error models:
    close prices are harder to compare). *)

type t

val random : Crowdmax_util.Rng.t -> int -> t
(** Uniform random hidden permutation. *)

val of_ranks : int array -> t
(** [of_ranks ranks] where [ranks] is a permutation of [0..n-1];
    [ranks.(e)] is element [e]'s rank. Raises [Invalid_argument] if not a
    permutation. *)

val with_values : Crowdmax_util.Rng.t -> int -> lo:float -> hi:float -> t
(** Random truth whose elements carry values drawn log-uniformly in
    [\[lo, hi\]] and ranked by value (think car prices). *)

val size : t -> int

val rank : t -> int -> int

val ranks : t -> int array
(** The underlying rank array ([ranks t].(e) = [rank t e]), exposed for
    hot loops that compare many pairs (the oracle answer path); treat it
    as read-only — mutating it corrupts the truth. *)

val value : t -> int -> float
(** Element's attached value. Truths built by [random] or [of_ranks]
    carry no values and store no copy: [value] is then
    [float_of_int (rank t e)], computed on each call (exact). *)

val max_element : t -> int
(** The true MAX. *)

val better : t -> int -> int -> int
(** [better t a b] is whichever of [a], [b] has the higher rank. Raises
    [Invalid_argument] if [a = b]. *)

val compare_elements : t -> int -> int -> int
(** Standard comparator by rank. *)

val sorted_desc : t -> int array
(** Elements from best to worst. *)
