type pricing = { per_question : float; votes_per_question : int }

let mturk_pricing = { per_question = 0.01; votes_per_question = 1 }

let create_pricing ~per_question ~votes_per_question =
  if per_question < 0.0 then invalid_arg "Cost.create_pricing: negative price";
  if votes_per_question < 1 then invalid_arg "Cost.create_pricing: votes < 1";
  { per_question; votes_per_question }

let dollars_of_questions p q =
  float_of_int (q * p.votes_per_question) *. p.per_question

let questions_for_dollars p dollars =
  if dollars <= 0.0 || p.per_question <= 0.0 then
    (if p.per_question <= 0.0 && dollars >= 0.0 then max_int else 0)
  else begin
    (* tolerate float representation error so that the cost of q
       questions always buys back at least q *)
    let raw = dollars /. (p.per_question *. float_of_int p.votes_per_question) in
    int_of_float (Float.floor (raw +. 1e-9))
  end

let allocation_cost p alloc =
  dollars_of_questions p (Allocation.questions_total alloc)

type frontier_point = { budget : int; dollars : float; latency : float }

let frontier ?(pricing = mturk_pricing) ~latency ~elements ~budgets () =
  (* one plan cache for the sweep: every budget reuses the model's tables *)
  let cache = Tdp.Cache.create () in
  let raw =
    List.filter_map
      (fun budget ->
        if not (Problem.is_feasible ~elements ~budget) then None
        else begin
          let sol =
            Tdp.solve ~cache (Problem.create ~elements ~budget ~latency)
          in
          Some
            {
              budget;
              dollars = dollars_of_questions pricing sol.Tdp.questions_used;
              latency = sol.Tdp.latency;
            }
        end)
      budgets
  in
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare a.dollars b.dollars with
        | 0 -> Float.compare a.latency b.latency
        | c -> c)
      raw
  in
  (* Keep a point only if it is strictly faster than everything cheaper
     (ties in cost keep the fastest only, handled by the sort order). *)
  let rec sweep best acc = function
    | [] -> List.rev acc
    | pt :: rest ->
        if pt.latency < best -. 1e-12 then sweep pt.latency (pt :: acc) rest
        else sweep best acc rest
  in
  sweep infinity [] sorted
