(** A flat binary event calendar: a min-heap on float keys with two int
    payload words per entry, stored in parallel unboxed arrays.

    Built for the platform simulator's event loop: pushing and popping
    an event allocates nothing (the backing arrays grow geometrically
    and can be reused across simulations via {!clear}), and there is no
    comparator closure or boxed element per entry.

    Tie order is exactly that of the generic array heap in test/heap.ml
    (the model test_event_calendar checks against) with a
    [Float.compare]-on-key comparator: both use strict-less sifting
    (a new entry rises only above strictly larger keys; on removal the
    relocated tail entry sinks below a strictly smaller child, left
    child preferred), so sequences containing duplicate keys drain in
    the same order from either structure. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty calendar. [capacity] (default 64, min 1) sizes the
    initial backing arrays; they double as needed. *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Empty the calendar, keeping the backing arrays for reuse. *)

val add : t -> time:float -> int -> int -> unit
(** [add t ~time a b] inserts an event. Raises [Invalid_argument] if
    [time] is NaN (NaN keys would silently corrupt the heap order). *)

val min_time : t -> float
(** Key of the earliest event. Raises [Invalid_argument] if empty. *)

val min_a : t -> int
(** First payload word of the earliest event. Raises [Invalid_argument]
    if empty. *)

val min_b : t -> int
(** Second payload word of the earliest event. Raises [Invalid_argument]
    if empty. *)

val remove_min : t -> unit
(** Drop the earliest event. Raises [Invalid_argument] if empty. *)
