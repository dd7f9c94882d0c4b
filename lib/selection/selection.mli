(** Question selection algorithms (Sec. 5.2).

    Each round [j], a selector receives the round budget [b_j], the set
    [C_j] of elements that have not lost any comparison, and the full
    answer history, and appends the unordered pairs to ask to a pair
    buffer. Two surviving candidates can never have been compared
    before (one would have lost), so selectors only have to avoid
    duplicates within the round.

    Buffer contract: a selector's [fill] appends to the caller's
    {!Crowdmax_util.Pairs.t} and touches nothing before the buffer's
    length at entry; the engine passes the query's own buffer, holding
    the round's carried stragglers. The built-ins keep per-domain
    scratch (a candidate pool, a pair set) that only grows, so a
    tournament round allocates nothing per pair. Each built-in's draws
    and pair order are fixed: [select] (the list view) and [fill]
    return the same pairs from the same draws. *)

type round_input = {
  budget : int;
      (** b_j from the allocation vector, minus any carried straggler
          questions the engine already committed this round's budget to *)
  candidates : int array;
      (** C_j, distinct ids; selectors only read it *)
  history : Crowdmax_graph.Answer_dag.t;
      (** all answers from rounds 0..j-1 (over the full element space) *)
  round_index : int;  (** 0-based *)
  total_rounds : int;  (** length of the allocation vector *)
  carried : (int * int) list;
      (** straggler questions from earlier deadline-bounded rounds that
          the engine reposts this round ahead of the selector's picks
          (see [Engine.straggler_policy]); always [] under [Wait_all].
          Selectors may use this to avoid duplicating them — the engine
          also dedups its output against them — but the built-in
          selectors ignore it. *)
}

type t = {
  name : string;
  fill : Crowdmax_util.Rng.t -> round_input -> Crowdmax_util.Pairs.t -> unit;
      (** [fill rng input out] appends the round's pairs to [out] and
          leaves the pairs already in [out] alone. This is the selector:
          the round machine calls it with the query's own pair buffer,
          so a built-in selector's round allocates nothing per pair.
          Pairs are unordered; a built-in writes each one in a fixed
          orientation and a fixed order, both part of its draw
          contract. A fill reads [input] and never keeps [out]. *)
  select : Crowdmax_util.Rng.t -> round_input -> (int * int) list;
      (** The list view of [fill]: the same pairs, in buffer order,
          from the same draws. It exists for callers that still build
          rounds as lists (the benchmark's traced replicas); the round
          machine never calls it, so overriding it in a copy
          ([{ sel with select = ... }]) changes nothing the engine
          does. *)
}

val make :
  string ->
  (Crowdmax_util.Rng.t -> round_input -> Crowdmax_util.Pairs.t -> unit) ->
  t
(** [make name fill] is the selector [fill] under [name], with [select]
    its list view. *)

val tournament : t
(** Tournament-formation: form the fewest cliques the budget allows
    ([Tournament.min_groups_within_budget]); assign candidates randomly;
    spend any leftover budget on random pairs across different cliques.
    Guarantees singleton termination of feasible allocations. *)

val spread : t
(** SPREAD: random pairs keeping every candidate's question count as
    even as possible — random near-perfect matchings stacked until the
    budget is spent. *)

val complete : t
(** COMPLETE: rank candidates with the Algorithm-2 score; spend part of
    the budget on one clique over the strongest [k], the rest connecting
    every other candidate to a clique member, so each candidate is in at
    least one question where the budget permits. [k] is the largest
    clique size such that [choose2 k + (|C_j| - k)] fits the budget. *)

val split : ?name:string -> float -> t -> t -> t
(** [split f early late]: use [early] for the first [f] fraction of the
    allocation's rounds and [late] for the rest. The boundary is
    [ceil (f * total_rounds)]. Raises [Invalid_argument] unless
    [0 <= f <= 1]. *)

val ct : float -> t
(** [ct f] is [split f spread complete] (CT25 is [ct 0.25]; Sec. 5.2). *)

val sg : float -> t
(** [sg f] is [split f spread greedy] — the paper's second combined
    strategy (SPREAD + the GREEDY algorithm of [10], Sec. 5.2). *)

val ct25 : t
val ct50 : t
val ct75 : t

val greedy : t
(** A best-first selector in the spirit of Guo et al. [10]: clique over
    the strongest candidates only (no coverage questions for the rest). *)

val all : t list
(** The selectors used across the experimental evaluation. *)

val validate_round : round_input -> (int * int) list -> (string, string) result
(** Checks a selector's output: within budget, pairs are distinct
    candidates, no duplicate pair in the round. [Ok name-of-check] on
    success, [Error reason] otherwise — used by tests and the engine's
    debug mode. *)
