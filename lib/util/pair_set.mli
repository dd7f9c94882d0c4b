(** A set of unordered pairs over the element universe [0 .. n-1].

    Pairs [(a, b)] with [a <> b] are normalized to [(min, max)] and
    packed into the single int key [min * n + max], stored in an
    open-addressed table with linear probing — no per-operation
    allocation and no polymorphic hashing, unlike the
    [((int * int), unit) Hashtbl.t] tables the question selectors used
    to build every round. Not thread-safe. *)

type t

val create : ?expected:int -> int -> t
(** [create ?expected n] is the empty set over elements [0 .. n-1];
    [expected] (default 16) sizes the table for that many pairs. Raises
    [Invalid_argument] if [n < 0] or [n] is large enough that packed
    keys could overflow ([n > 2^31]). *)

val mem : t -> int -> int -> bool
(** [mem t a b] — order of [a] and [b] is irrelevant. Raises
    [Invalid_argument] on out-of-range elements or [a = b]. *)

val add : t -> int -> int -> bool
(** [add t a b] inserts the pair and returns [true] iff it was not
    already present. Same exceptions as {!mem}. *)

val reset : ?expected:int -> t -> int -> unit
(** [reset ?expected t n] turns [t] into the empty set over elements
    [0 .. n-1], as if it were [create ?expected n], while keeping its
    storage: the table is reallocated only when [expected] needs more
    room than [t] ever had, and clearing costs O([expected]), not the
    size of the largest table [t] grew to. Same exceptions as
    {!create}. *)
