val used : int -> int
val unused : int -> int
val via_alias : int -> int
