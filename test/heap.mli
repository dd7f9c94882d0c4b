(** Array-backed binary min-heap: the reference model that
    [Crowdmax_util.Event_calendar] is tested against (test_event_calendar),
    including the order in which equal keys pop. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
val pop : 'a t -> 'a option
(** Smallest element under [cmp], or [None] when empty. *)

val pop_exn : 'a t -> 'a
(** Raises [Invalid_argument] when empty. *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
val to_sorted_list : 'a t -> 'a list
(** Drains the heap. *)
