(** The directed acyclic graph of answers (Sec. 4 of the paper).

    Elements are integers [0 .. n-1]. An answer [(winner, loser)] is the
    paper's directed edge from [loser] to [winner] ("a won over b"). The
    {e remaining candidates} (RC set, Def. 5) are the elements with no
    outgoing edge in the paper's orientation — i.e. the elements that have
    not lost any comparison. Because answers come from a strict total
    order (via the RWL), the graph is acyclic; [add_answer] enforces this
    and rejects answers that would close a cycle.

    Representation: flat structure-of-arrays — a grow-on-demand edge
    pool with intrusive head/next int-array adjacency chains, a 32-bit
    word direct-loss bitset per element, an incrementally maintained
    loss-count array, and a candidate bitset plus count cleared as
    elements take their first loss. Recording an answer is O(1)
    amortized and allocation-free once the pool has grown; candidate
    queries read maintained state ([candidates] visits only set bits,
    O(n/32 + candidates); [is_singleton] / [candidate_count] O(1))
    instead of testing all n elements. A [t] is not thread-safe; confine each
    value to one domain (the round machine recycles DAGs through a
    per-domain free list, {!reset} between queries). *)

type t

val create : ?edge_capacity:int -> int -> t
(** [create n] is the empty answer DAG over elements [0..n-1]. Raises
    [Invalid_argument] if [n < 0] or [edge_capacity < 0].
    [edge_capacity] preallocates the edge pool for that many answers
    (defaults to 0, growing by doubling on demand); callers that know
    the answer volume up front — e.g. the engine, which knows the total
    budget — avoid all pool reallocation by passing it. *)

val reset : ?edge_capacity:int -> t -> int -> unit
(** [reset t n] turns [t] into the empty answer DAG over elements
    [0..n-1], as if it were [create ?edge_capacity n], while keeping
    its storage: arrays grow only when [n] or [edge_capacity] exceed
    what [t] already holds, so recycling a DAG across same-sized graphs
    allocates nothing. O(n + answers recorded in [t]), not O(n²/32):
    only the loss-bitset words of recorded answers are cleared. The
    {!ext} slot keeps its value, so a cache keeps its buffers across
    graphs; {!generation} moves on, which is what makes the old graph's
    memos stale. Raises [Invalid_argument] like [create]. *)

val size : t -> int

val copy : t -> t

exception Cycle of int * int
(** Raised by [add_answer] when the new answer would contradict the
    transitive closure of previous answers. *)

val add_answer : t -> winner:int -> loser:int -> unit
(** Record that [winner] beat [loser]. Duplicate answers are idempotent.
    Raises [Cycle (winner, loser)] if [loser] already (transitively) beat
    [winner]; raises [Invalid_argument] on out-of-range ids or a
    self-comparison. The cycle check walks the win relation (O(edges));
    use {!add_answer_unchecked} in bulk paths whose input is already
    conflict-free. *)

val add_answer_unchecked : t -> winner:int -> loser:int -> unit
(** [add_answer] without the transitive cycle check — constant time.
    The caller must guarantee the answer cannot contradict previous ones
    (true for oracle answers and for RWL output, which are consistent
    with a single total order). Still validates ids and idempotence; an
    actually-cyclic insertion silently corrupts candidate accounting, so
    never use this on raw worker answers. *)

val beats_directly : t -> int -> int -> bool
(** [beats_directly t a b] is [true] iff the answer [(a, b)] was recorded. *)

val beats : t -> int -> int -> bool
(** Transitive: [a] beat [b] directly or through a chain of answers. *)

val losses : t -> int -> int
(** Number of direct comparisons this element lost. *)

val direct_wins : t -> int -> int list
(** Elements this element beat directly. *)

val direct_losses_to : t -> int -> int list
(** Elements that beat this element directly. *)

val iter_lost_to : t -> int -> (int -> unit) -> unit
(** [iter_lost_to t x f] applies [f] to each element that beat [x]
    directly, most recent first, without allocating. *)

val remaining_candidates : t -> int list
(** The RC set: elements with zero losses, ascending. O(candidates). *)

val candidates : t -> int array
(** The RC set as a fresh array, ascending. O(candidates). *)

val candidates_into : t -> int array -> unit
(** [candidates_into t out] writes the RC set, ascending, into
    [out.(0) .. out.(candidate_count t - 1)] and leaves the rest of
    [out] alone: {!candidates} without the allocation, for a caller
    that pools the array. Visits only the set bits of the candidate
    bitset, O(n/32 + candidates). Raises [Invalid_argument] if [out] is
    shorter than the RC set. *)

val candidate_count : t -> int
(** [List.length (remaining_candidates t)], in O(1). *)

val is_singleton : t -> bool
(** [true] iff exactly one candidate remains. O(1). *)

val winner : t -> int option
(** The single remaining candidate, when [is_singleton]. O(1). *)

val answers : t -> (int * int) list
(** All recorded answers as [(winner, loser)], unspecified order. *)

val answer_count : t -> int

val transitive_win_counts : t -> int array
(** [transitive_win_counts t] maps each element to the number of elements
    it beat implicitly or explicitly (size of its descendant set in the
    win relation). Used by the Algorithm-2 scoring function. *)

val topological_order : t -> int array
(** Elements ordered winners-first: if [a] beats [b] then [a] appears
    before [b]. *)

val check_invariants : t -> unit
(** Recounts every piece of maintained state against first principles:
    loss-bitset rows vs. the loss counts, the candidate bitset and its
    count vs. the loss counts, edge-pool entries vs. the bitset, and the
    intrusive win/loss chains (partition of the used pool, per-loser
    length, no cycles, no duplicate pairs, no stray bits beyond [n]).
    Raises [Failure] with a description of the first violation.
    O(n·words + edges) — a test hook, not a hot-path call. *)

type ext = ..
(** Extension slot for caches of derived data (e.g. {!Scoring}'s ranking
    cache). The DAG itself never interprets the value. [copy] sets it to
    {!Ext_none}, so a cache is never shared between diverging DAGs;
    [reset] keeps it, so a recycled DAG's cache keeps its buffers. A
    cache must therefore key its memo on {!generation} as well as on
    {!answer_count}. *)

type ext += Ext_none

val ext : t -> ext
val set_ext : t -> ext -> unit

val generation : t -> int
(** A counter every {!reset} bumps and nothing restarts: together with
    {!answer_count} it names one state of one DAG, so a memo keyed on
    both can never match a graph [reset] has replaced. *)
