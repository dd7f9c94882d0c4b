val score_beats : int -> int -> int -> int -> bool

type pt = { x : float; y : float }

val dominated : pt -> pt -> bool
val prefix_before : int list -> int list -> bool
val hotter : float -> float -> bool
val alphabetical : string -> string -> bool
val bounded : int -> bool
val ranked_above : 'a array -> int -> int -> bool
