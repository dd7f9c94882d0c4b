val helper : int -> int
