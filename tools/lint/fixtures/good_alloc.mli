type t

val create : unit -> t
val push : t -> int -> unit
val get : t -> int -> int
val sum : t -> int
val count_below : t -> int -> int
