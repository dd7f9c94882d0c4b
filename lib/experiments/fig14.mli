(** Figs. 14(a)-(b): non-linear latency functions L(q) = 239 + 0.06 q^p.

    14(a): latency to MAX vs exponent p (c0 = 500, b = 4000); the gap
    between tDP and the rest grows with p (12x over the runner-up at
    p = 2 in the paper) because only tDP limits the budget it spends.
    14(b): questions actually used by tDP vs available budget, one curve
    per p, plus the "others" line that always spends everything. *)

type t_a = { cells : (string * float * float) list }
(** (combo label, p, mean latency) *)

type t_b = {
  curves : (float * (int * int) list) list;
      (** p -> [(available budget, questions used by tDP)] *)
  others : (int * int) list;
      (** available budget -> questions used by every other allocator *)
  elements : int;
}

val run_a :
  ?jobs:int -> ?runs:int -> ?seed:int -> ?elements:int -> ?budget:int -> unit -> t_a
val run_b : ?elements:int -> unit -> t_b
(** 14(b) is deterministic — tDP's allocation needs no replication. *)

val print_a : t_a -> unit
val print_b : t_b -> unit
