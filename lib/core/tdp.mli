(** tDP: the dynamic-programming budget allocator (Algorithm 1).

    Solves the MinLatency problem exactly: over all candidate-count
    sequences [(c_i)] with [c_r = 1] and total questions within budget,
    minimize [sum L(Q(c_{i-1}, c_i))]. By Theorem 4 the result is also
    optimal for the Generalized Worst MinLatency problem, where rounds
    may ask arbitrary question graphs.

    The implementation is the paper's top-down memoization with one
    refinement: since a pair of elements can meet at most once across a
    tournament sequence, [OL(q, c) = OL(choose2 c, c)] for
    [q > choose2 c], so the remaining budget is clamped at [choose2 c].
    This both bounds the state space for very large budgets (the Fig. 15
    "pruning" effect) and realizes the paper's budget-limiting behaviour
    (Figs. 13(b), 14(b)).

    The memo is a flat arena: the [(c, q)] state packs into one tagged
    int key, DP values live in parallel unboxed [float]/[int] arrays
    probed open-addressed on ints, and the recursion is an explicit
    work stack (deep c0 cannot overflow the OCaml stack). Q(c, c') is
    never tabulated — candidate scans step it linearly through
    constant-quotient runs of c', one division per run — and runs that
    provably cannot beat the incumbent (by the Theorem 1 guard, or, for
    models under the round-count bound below, by a lower bound on the
    unconstrained optimum that is non-decreasing in c') are skipped
    whole, without changing any value or decision.
    [L(q)] is inlined for linear models and memoized into a float array
    for the rest, each batch size evaluated on its first read. {!Cache}
    exposes the working state as a reusable handle so budget sweeps and
    re-plans skip the table build and explore only unsettled states.

    For a [Linear] model with [delta, alpha >= 0] (the paper's L(q),
    every [Estimate] fit, [Contention.effective]) a plan of R rounds and
    Q questions costs [R delta + alpha Q], so the exact optimum of any
    state is a lookup in the {!min_questions} table. The scan uses that
    value only as a pruning bound, with a relative margin far above the
    float sums' rounding: a child whose bound cannot beat the incumbent,
    or lies above its parent's own optimum, is never probed. The float
    DP, its scan order and its tie-breaks are untouched, so solutions
    stay bit-identical while a cold solve settles a handful of states
    instead of tens of thousands. For every model the unconstrained
    optimum [OL(c, choose2 c)] is computed only for the [c] whose exact
    value a comparison needs. For these models the same bound,
    two-sided, decides almost every comparison, so a solve computes a
    handful of entries instead of [c0 - 1]. Other models have no such
    bound: they compute every entry the search reads. *)

type solution = {
  sequence : int list;  (** (c_i): [elements] down to 1 *)
  allocation : Allocation.t;
  latency : float;  (** optimal objective value, seconds *)
  questions_used : int;  (** may be below the budget (Sec. 6.5) *)
  states_visited : int;
      (** constrained DP states this solve settled (= its memo misses),
          at most the seed solver's memo size for the same problem:
          equal to it for models outside the round-count bound, usually
          far below it for linear ones. Against a warm {!Cache} it is
          the incremental work only, and 0 when every state was already
          settled. Fig. 15 diagnostics. *)
}

(** A reusable planner cache: the unconstrained optima [OL(c, choose2 c)]
    with their first steps (the entries computed so far), the L memo
    (non-linear models: the batch sizes evaluated so far) and the flat
    state arena, retained across {!solve} calls. These are the values
    of one latency model; a rebuild allocates the two [c0 + 1]-entry
    optima rows, the L memo's [choose2 c0 + 1] slots for a non-linear
    model, and a small arena, nothing else.

    What a solve needs beyond that — the choose2 memo, the DP work
    stacks and the round-count bound's per-c rows — lives in one
    workspace per domain, shared by every cache solved on it. It grows
    by doubling to the largest capacity solved and is never shrunk.
    The bound's rows are filled on first read for the cache that owns
    them; a solve through another cache, or through the owner after a
    rebuild, clears their ready marks and takes ownership. None of it
    changes a solution, only what a cold solve allocates.

    Invalidation rule — a solve reuses the cache iff both hold:
    - the latency model equals the cached one
      ({!Crowdmax_latency.Model.equal}: structural with typed float
      comparison; [Custom] models only by physical identity);
    - the instance's [elements] is at most the cached capacity (the
      largest c0 the tables were built for).

    Otherwise the solve rebuilds everything for the new (model, c0).
    Reuse at smaller c0 is sound because every table entry is a pure
    function of (model, state) alone — which is also why cached and
    fresh solves return bit-identical solutions; only the hit/miss
    split and [states_visited] change.

    A cache is single-domain mutable state: never share one across
    domains (give each worker its own, as [Adaptive.replicate] does).
    A solve that raises (a non-finite or raising L) leaves the cache
    empty, so the next solve rebuilds.

    A [Custom] L is user code that runs during the search, and it may
    itself call {!solve}: with no cache or another cache, the nested
    solve runs on a private workspace and both plans are the ones each
    solve returns alone. A nested solve through the cache of a solve
    that is running raises [Invalid_argument] (it would rebuild the
    tables under that solve), and so does {!Cache.clear} on it. *)
module Cache : sig
  type t

  val create : unit -> t
  (** An empty cache; the first solve through it builds the tables. *)

  val clear : t -> unit
  (** Drop everything (tables, arena, statistics), as if fresh. The
      domain's workspace is not touched: it never holds values the next
      rebuild could mistake for its own. Raises [Invalid_argument]
      while a solve through [t] is running (from a [Custom] L). *)

  val hits : t -> int
  (** Solves that reused the retained tables. *)

  val misses : t -> int
  (** Solves that (re)built the tables: first use, model change, or
      capacity growth. *)

  val states_settled : t -> int
  (** Constrained DP states currently in the arena. *)

  val capacity : t -> int
  (** Largest c0 the current tables cover; 0 when empty. *)

  val ub_entries : t -> int
  (** Unconstrained optima computed since the last rebuild: those some
      solve's comparisons needed, at most [capacity - 1]. Under the
      round-count bound a handful; outside it every entry the search
      read, which for a lean root leaves out at least [ub(capacity)]. *)

  val ub_entry : t -> int -> (float * int) option
  (** [ub_entry t c] is [Some (OL(c, choose2 c), best next count)] once
      the cache has computed that entry ([c = 1] always has), [None]
      otherwise or outside [1, capacity]. Read-only; for tests. *)
end

val solve :
  ?metrics:Crowdmax_obs.Metrics.t -> ?cache:Cache.t -> Problem.t -> solution
(** Optimal solution. The problem is feasible by construction
    ([Problem.create] enforces Theorem 1).

    [cache] (default a private one) retains the planner tables across
    calls under the {!Cache} invalidation rule. The solution is
    bit-identical with or without it.

    [metrics] (default disabled) registers planner instruments in the
    ["planner"] section: [plans], [states_visited], [memo_hits] /
    [memo_misses] (hits include the sequence-reconstruction replay),
    [ub_pruned_branches] (branches a lower bound — the unconstrained
    optimum, or for linear models the round-count bound — showed
    could not be the optimum), [plan_cache_hits] /
    [plan_cache_misses] (cache reuses/rebuilds — recorded only when
    [cache] is supplied), and the [plan_seconds] real-time span. All
    counters are pure functions of the problem and cache state, so they
    are deterministic; only [plan_seconds] is machine-dependent.

    Raises [Invalid_argument] if the latency model evaluates to a
    non-finite value at any batch size the search touches (a NaN would
    otherwise silently poison the whole DP table), and on a nested
    solve through the cache of a running solve (see {!Cache}). *)

val optimal_latency : Problem.t -> float
(** Just the objective value. *)

val min_questions : rounds:int -> int -> int
(** [min_questions ~rounds c] is Qmin_r(c): the fewest questions that
    reduce [c] candidates to 1 in at most [rounds] rounds — row 1 is
    [choose2 c], and every row from [log2_ceil c] on is [c - 1] (the
    knockout plan). A pure function of
    {!Crowdmax_tournament.Tournament.questions}, read from the calling
    domain's table (built on first use, grown by doubling). For a
    [Linear] model with [delta, alpha >= 0] and [c >= 2],
    [OL(c, q) = min { R delta + alpha Qmin_R(c) | Qmin_R(c) <= q }],
    which {!solve} uses as its pruning bound. Raises [Invalid_argument]
    unless [c >= 1] and [rounds >= 1]. *)
