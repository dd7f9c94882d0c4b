(** Figs. 13(a)-(b): budget allocation algorithms compared.

    13(a): fixed b = 4000, c0 in 125..2000. 13(b): fixed c0 = 500,
    budgets 500..32000. Grid: tDP+Tournament vs {HE, HF, uHE, uHF}+CT25
    (Sec. 6.3's convention). The paper's findings: tDP always lowest;
    at c0 = 2000 uHE is +25% and HF +90%; past b = 4000 tDP's latency
    goes flat (it stops spending budget at allocation (2250, 1225))
    while the others climb to 2-4x tDP at b = 32000. *)

type cell = { label : string; x : int; mean_latency : float }

type t = {
  cells : cell list;
  x_label : string;
  title : string;
  example_allocations : (string * string) list;
      (** textual notes, e.g. tDP's allocation at each x *)
}

val collection_sizes : int list
(** 125, 250, 500, 1000, 2000 (Fig. 13(a) x-axis). *)

val run_a : ?jobs:int -> ?runs:int -> ?seed:int -> ?budget:int -> unit -> t
val run_b : ?jobs:int -> ?runs:int -> ?seed:int -> ?elements:int -> unit -> t
val print : t -> unit
