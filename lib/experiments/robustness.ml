module Engine = Crowdmax_runtime.Engine
module Selection = Crowdmax_selection.Selection
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Platform = Crowdmax_crowd.Platform
module Rwl = Crowdmax_crowd.Rwl
module Worker = Crowdmax_crowd.Worker

type cell = {
  error_rate : float;
  votes : int;
  correct_rate : float;
  mean_latency : float;
}

type t = { cells : cell list; elements : int; budget : int }

let error_rates = [ 0.05; 0.1; 0.2; 0.3 ]
let vote_counts = [ 1; 3; 5 ]

let run ?(jobs = 1) ?(runs = 20) ?(seed = 43) ?(elements = 100) ?(budget = 800)
    () =
  let model = Common.estimated_model in
  let sol = Tdp.solve (Problem.create ~elements ~budget ~latency:model) in
  let platform = Platform.create () in
  let cells =
    List.concat_map
      (fun error_rate ->
        List.map
          (fun votes ->
            let cfg =
              Engine.config
                ~source:
                  (Engine.Simulated
                     {
                       platform;
                       rwl = { Rwl.votes; error = Worker.Uniform error_rate };
                     })
                ~allocation:sol.Tdp.allocation ~selection:Selection.tournament
                ~latency_model:model ()
            in
            let agg = Engine.replicate ~jobs ~runs ~seed cfg ~elements in
            {
              error_rate;
              votes;
              correct_rate = agg.Engine.correct_rate;
              mean_latency = agg.Engine.mean_latency;
            })
          vote_counts)
      error_rates
  in
  { cells; elements; budget }

(* One error-rate x vote-count table of [value] per cell. *)
let print_table t ~what value =
  let table =
    Crowdmax_util.Table.create
      ~title:
        (Printf.sprintf "Robustness: %s, worker error x RWL votes (c0=%d, b=%d)"
           what t.elements t.budget)
      (("error rate", Crowdmax_util.Table.Right)
      :: List.map
           (fun v -> (Printf.sprintf "%d vote%s" v (if v = 1 then "" else "s"),
                      Crowdmax_util.Table.Right))
           vote_counts)
  in
  List.iter
    (fun e ->
      let row =
        Printf.sprintf "%.0f%%" (100.0 *. e)
        :: List.map
             (fun v ->
               match
                 List.find_opt
                   (fun c -> Float.equal c.error_rate e && c.votes = v)
                   t.cells
               with
               | Some c -> value c
               | None -> "-")
             vote_counts
      in
      Crowdmax_util.Table.add_row table row)
    error_rates;
  Crowdmax_util.Table.print table

let print t =
  print_table t ~what:"correct-MAX rate" (fun c ->
      Printf.sprintf "%.0f%%" (100.0 *. c.correct_rate));
  print_newline ();
  print_table t ~what:"mean latency (s)" (fun c ->
      Printf.sprintf "%.0f" c.mean_latency)
