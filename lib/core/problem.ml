open Crowdmax_util

type t = { elements : int; budget : int; latency : Crowdmax_latency.Model.t }

let is_feasible ~elements ~budget = budget >= elements - 1

let min_budget ~elements = elements - 1

let max_useful_budget ~elements = Ints.choose2 elements

let create ~elements ~budget ~latency =
  if elements < 1 then invalid_arg "Problem.create: need at least one element";
  if budget < 0 then invalid_arg "Problem.create: negative budget";
  if not (is_feasible ~elements ~budget) then
    invalid_arg "Problem.create: infeasible (budget < elements - 1, Theorem 1)";
  { elements; budget; latency }

let pp fmt t =
  Format.fprintf fmt "MinLatency(c0 = %d, b = %d, %a)" t.elements t.budget
    Crowdmax_latency.Model.pp t.latency
