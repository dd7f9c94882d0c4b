open Crowdmax_util
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp

type point = {
  elements : int;
  budget_multiple : int;
  seconds : float;
  warm_seconds : float;
  states_visited : int;
}

type t = { points : point list }

let collection_sizes = [ 250; 500; 1000; 2000 ]
let budget_multiples = [ 2; 4; 8; 16 ]

let time_solve repeats problem =
  let best = ref infinity in
  let states = ref 0 in
  for _ = 1 to repeats do
    let t0 = Crowdmax_obs.Clock.now () in
    let sol = Tdp.solve problem in
    let dt = Crowdmax_obs.Clock.now () -. t0 in
    states := sol.Tdp.states_visited;
    if dt < !best then best := dt
  done;
  (!best, !states)

(* Re-solve against a primed cache: what every solve after the first of
   a replication or budget sweep pays — table build skipped, the DP
   reduced to arena replays of already-settled states. *)
let time_warm repeats cache problem =
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Crowdmax_obs.Clock.now () in
    ignore (Tdp.solve ~cache problem);
    let dt = Crowdmax_obs.Clock.now () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let run ?(repeats = 3) ?(sizes = collection_sizes) () =
  let model = Common.estimated_model in
  let points =
    List.concat_map
      (fun elements ->
        let problem_for m =
          Problem.create ~elements ~budget:(m * elements) ~latency:model
        in
        (* One cache per collection size, primed over the whole budget
           sweep, so the warm column measures steady-state sweep cost. *)
        let cache = Tdp.Cache.create () in
        List.iter (fun m -> ignore (Tdp.solve ~cache (problem_for m))) budget_multiples;
        List.map
          (fun m ->
            let problem = problem_for m in
            let seconds, states_visited = time_solve repeats problem in
            let warm_seconds = time_warm repeats cache problem in
            { elements; budget_multiple = m; seconds; warm_seconds; states_visited })
          budget_multiples)
      sizes
  in
  { points }

let print_grid ~title ~value t =
  let sizes = List.sort_uniq Int.compare (List.map (fun p -> p.elements) t.points) in
  let table =
    Table.create ~title
      (("b/c0", Table.Right)
      :: List.map (fun c -> (Printf.sprintf "c0=%d" c, Table.Right)) sizes)
  in
  List.iter
    (fun m ->
      let cells =
        string_of_int m
        :: List.map
             (fun c ->
               match
                 List.find_opt
                   (fun p -> p.elements = c && p.budget_multiple = m)
                   t.points
               with
               | Some p -> Printf.sprintf "%.4f" (1000.0 *. value p)
               | None -> "-")
             sizes
      in
      Table.add_row table cells)
    (List.sort_uniq Int.compare (List.map (fun p -> p.budget_multiple) t.points));
  Table.print table

let print t =
  print_grid ~title:"Fig 15: tDP running time (ms) vs budget multiple"
    ~value:(fun p -> p.seconds)
    t;
  print_grid
    ~title:"Fig 15 (warm): re-solve against a primed plan cache (ms)"
    ~value:(fun p -> p.warm_seconds)
    t
