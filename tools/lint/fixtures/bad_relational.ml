(* R1 (relational extension): ordering operators at structured types.
   The first line is the exact shape that escaped the original R1 in
   [Rwl.break_cycles]: a polymorphic [>] on a freshly boxed int tuple,
   silently meaning lexicographic comparison. Boxed scalars under
   ordering operators are deliberately allowed (see good_clean). *)

let score_beats (sw : int) w sl l = (sw, w) > (sl, l)

type pt = { x : float; y : float }

let dominated (a : pt) b = a < b
let prefix_before (xs : int list) ys = xs <= ys

(* negative controls: relational at scalars stays clean *)
let hotter (a : float) b = a > b
let alphabetical (a : string) b = a < b
let bounded (n : int) = n >= 0

(* An operand still typed by a type variable at the primitive: the
   function is generalized over what it compares, so the compiled [>]
   is the generic compare whatever array a caller passes, and no call
   site shows the comparison to R1. *)
let ranked_above ranks a b = ranks.(a) > ranks.(b)
