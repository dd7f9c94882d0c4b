(** Deterministic pseudo-random number generation.

    All stochastic components of crowdmax (tournament seeding, worker
    behaviour, workload generation) draw from an explicit [Rng.t] so that
    every experiment is reproducible from a single integer seed.  The
    generator is splitmix64: tiny state, good statistical quality, and
    [split] produces independent streams for parallel sub-experiments. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Two generators built from the
    same seed produce identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator that continues from the current
    state of [t] without affecting it. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent from the remainder of [t]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val draws_since : base:t -> t -> int
(** [draws_since ~base t] is the number of raw 64-bit draws separating
    [t]'s state from [base]'s. The splitmix state advances by a fixed
    odd (hence invertible mod 2^64) gamma per draw, so the count is
    recovered exactly from the state difference. Meaningful only when
    [t] was advanced from a {!copy} of [base]; for unrelated generators
    the result is an arbitrary 64-bit value. Regression tests use this
    to bound how many draws an operation consumes. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] — exactly uniform, by
    rejection sampling: 63-bit draws above {!accept_max}[ bound] are
    redrawn rather than folded in by a biased modulo. Raises
    [Invalid_argument] if [bound <= 0]. *)

val accept_max : int -> int64
(** [accept_max bound] is the largest 63-bit draw [int] accepts for
    [bound]: [2^63 - (2^63 mod bound) - 1]. Exposed so property tests can
    check the rejection bound ([accept_max + 1] is a multiple of [bound]
    and fewer than [bound] draw values are rejected). Raises
    [Invalid_argument] if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). Raises
    [Invalid_argument] if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given mean. Raises [Invalid_argument] if [mean <= 0]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** [gaussian t ~mu ~sigma] is [mu +. sigma *. z] for a standard normal
    [z] drawn by a 256-layer ziggurat (Marsaglia & Tsang, 2000). About
    98.5% of draws take the fast path: one {!bits64}, whose bits 0-7
    pick the layer and bits 11-63 give a signed uniform on (-1, 1).
    The rest take the out-of-line slow path (the tail beyond
    R = 3.6541528853610088, or a wedge test and a fresh candidate), which
    consumes further raw draws. The draw count depends on the stream
    alone, so results are deterministic given the seed. Table layout
    and draw contract: DESIGN.md, "The samplers". *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [lognormal t ~mu ~sigma] is [exp] of {!gaussian}; a standard model
    for human task service times. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher-Yates shuffle. *)

val shuffle_prefix : t -> int array -> int -> unit
(** [shuffle_prefix t a n] shuffles [a.(0) .. a.(n-1)] in place with the
    draws [shuffle_in_place] makes on an array of length [n], leaving
    the rest of [a] alone: a caller that copies [n] values into a
    longer pooled array and shuffles that prefix gets exactly
    {!shuffle}'s result and rng state. Raises [Invalid_argument] unless
    [0 <= n <= Array.length a]. *)

val shuffle : t -> 'a array -> 'a array
(** Non-destructive shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniform random permutation of [0..n-1]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct values from
    [0..n-1], in random order. Raises [Invalid_argument] if [k > n] or
    [k < 0]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)
