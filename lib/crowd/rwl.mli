(** The Reliable Worker Layer (Sec. 2.1).

    The paper's algorithms assume a layer between them and the raw crowd
    that turns noisy worker output into one correct-looking,
    conflict-free answer per question: it repeats each question across
    several workers, majority-votes, and resolves any cycles the votes
    form (techniques of [10, 12, 13, 14, 17, 22]). This module is a
    working instance: repetition + majority vote + SCC-based cycle
    resolution (inside each strongly connected component of the voted
    answer graph, edges are re-oriented by the component-local win/loss
    score, which yields an acyclic orientation; across components the
    votes already form a DAG). *)

type config = {
  votes : int;  (** raw answers per question; use odd values *)
  error : Worker.error_model;
}

val default_config : config
(** 3 votes, 10% uniform error. *)

type outcome = {
  answers : (int * int) list;
      (** one conflict-free [(winner, loser)] per answered question *)
  unanswered : (int * int) list;
      (** questions with zero received votes (deadline-truncated
          rounds); empty without [?votes_received]. In input order. *)
  raw_questions : int;  (** questions actually sent to workers *)
  vote_flips : int;  (** majority answers that contradicted the truth *)
  cycle_edges_flipped : int;
      (** voted answers re-oriented by cycle resolution *)
  accuracy : float;
      (** fraction of final answers matching the truth, over answered
          questions (vacuously 1 when none were answered) *)
}

val resolve :
  ?votes_received:int array ->
  Crowdmax_util.Rng.t ->
  config ->
  truth:Ground_truth.t ->
  (int * int) list ->
  outcome
(** Answer a round's questions. The output orientation is guaranteed
    acyclic (checked by construction; property-tested).

    [votes_received] (one entry per question, each in [\[0, votes\]])
    caps how many of a question's repetitions actually came back — the
    deadline-bounded partial-vote path. Questions with zero received
    votes are reported in [unanswered] instead of being answered;
    majority is taken over the received votes only. When omitted, every
    question gets its full [votes].

    An exact vote split (possible whenever the effective vote count is
    even) is broken by a fair draw from the rng — not, as a historical
    bug had it, always awarded to the second element. Odd full-vote
    configurations never consult the rng for tie-breaking, so their
    draw streams are unchanged.

    Raises [Invalid_argument] if [votes < 1], a question is a
    self-comparison, or [votes_received] has the wrong length or an
    out-of-range entry. *)

val is_conflict_free : n:int -> (int * int) list -> bool
(** [true] iff the [(winner, loser)] pairs over elements [0..n-1] form no
    directed cycle — the contract RWL promises its caller. *)
