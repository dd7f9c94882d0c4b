(** A growable buffer of int pairs: two parallel int arrays and a
    length.

    The round machine carries a round's questions, and the answers to
    them, in buffers like this one instead of [(int * int) list]s: a
    query owns one question buffer for its whole life (recycled across
    queries with its answer DAG), so a steady-state round pushes and
    reads pairs without allocating. Storage only grows; {!clear} keeps
    it. Not thread-safe. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty buffer with room for [capacity] pairs (default 16) before
    its first growth. Raises [Invalid_argument] on a negative
    capacity. *)

val length : t -> int
(** Pairs held. *)

val clear : t -> unit
(** Empty the buffer, keeping its storage. *)

val push : t -> int -> int -> unit
(** [push t a b] appends the pair [(a, b)]: amortized O(1), allocation
    free unless the buffer has to grow. *)

val first : t -> int -> int
(** [first t i] is the first element of pair [i]. Raises
    [Invalid_argument] unless [0 <= i < length t]. *)

val second : t -> int -> int
(** [second t i] is the second element of pair [i]; same bounds as
    {!first}. *)

val set : t -> int -> int -> int -> unit
(** [set t i a b] overwrites pair [i] with [(a, b)]; same bounds as
    {!first}. *)

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] pairs. Raises [Invalid_argument]
    unless [0 <= n <= length t]. *)

val reverse : t -> int -> int -> unit
(** [reverse t lo hi] reverses pairs [lo .. hi - 1] in place. Raises
    [Invalid_argument] unless [0 <= lo <= hi <= length t]. *)

val to_list : t -> (int * int) list
(** The pairs in buffer order, as a fresh list. *)

val of_list : (int * int) list -> t
(** A fresh buffer holding the list's pairs in list order. *)
