(** Maximum independent sets (Def. 7) and maximum remaining-candidate
    sets (Def. 6).

    Theorem 2 of the paper shows maxIND = maxRC for any question graph;
    [max_rc_brute] computes maxRC directly from its definition (best over
    orientations induced by node permutations) so the equivalence can be
    property-tested, while [exact] is the usable algorithm. *)

val exact : Undirected.t -> int list
(** A maximum independent set, by branch and bound with greedy pivoting.
    Exponential worst case; intended for graphs up to a few dozen nodes
    (tests and theory checks). *)

val greedy : Undirected.t -> int list
(** Min-degree greedy independent set — a fast lower bound usable on
    graphs of any size. *)

val max_rc_brute : Undirected.t -> int list
(** A largest RC set over all DAG orientations of the graph, found by
    searching permutation-induced orientations (every acyclic orientation
    consistent with a total order arises this way). Factorial cost; only
    for graphs with at most ~9 nodes. Raises [Invalid_argument] above 9
    nodes. *)
