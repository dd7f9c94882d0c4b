module Model = Crowdmax_latency.Model
module Problem = Crowdmax_core.Problem
module Tdp = Crowdmax_core.Tdp
module Selection = Crowdmax_selection.Selection
module Engine = Crowdmax_runtime.Engine
module Adaptive = Crowdmax_runtime.Adaptive
module G = Crowdmax_crowd.Ground_truth
module Platform = Crowdmax_crowd.Platform
module Topk = Crowdmax_topk.Topk
module Sort = Crowdmax_sort.Sort
module Rng = Crowdmax_util.Rng
module Stats = Crowdmax_util.Stats
module Table = Crowdmax_util.Table

let model = Model.paper_mturk

(* Per-round re-planning vs the static tDP schedule. With pure
   tournament rounds the two coincide (DP suffix optimality); the gain
   appears when cross-tournament extras over-eliminate. *)
let adaptive ~jobs ~runs =
  let table =
    Table.create
      [ ("c0", Table.Right); ("b", Table.Right);
        ("static (s)", Table.Right);
        ("adaptive (s)", Table.Right);
        ("gain", Table.Right) ]
  in
  List.iter
    (fun (c0, b) ->
      let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
      let static = Tdp.solve problem in
      let cfg =
        Engine.config ~allocation:static.Tdp.allocation
          ~selection:Selection.tournament ~latency_model:model ()
      in
      let st = Engine.replicate ~jobs ~runs ~seed:3 cfg ~elements:c0 in
      let ad =
        Adaptive.replicate ~jobs ~runs ~seed:3 ~problem
          ~selection:Selection.tournament ()
      in
      let ad_latency = ad.Adaptive.engine_aggregate.Engine.mean_latency in
      Table.add_row table
        [
          string_of_int c0; string_of_int b;
          Printf.sprintf "%.1f" st.Engine.mean_latency;
          Printf.sprintf "%.1f" ad_latency;
          Printf.sprintf "%.1f%%"
            (100.0 *. (st.Engine.mean_latency -. ad_latency)
            /. st.Engine.mean_latency);
        ])
    [ (125, 1000); (250, 2000); (500, 4000); (500, 999) ];
  table

(* CT split point sensitivity (Sec. 5.2 / 6.8): latency and singleton
   rate of CT25 / CT50 / CT75, SG25 and the other selectors under the
   tDP allocation. *)
let ct_split ~jobs ~runs =
  let c0 = 500 and b = 4000 in
  let sol = Tdp.solve (Problem.create ~elements:c0 ~budget:b ~latency:model) in
  let table =
    Table.create
      [ ("selector", Table.Left);
        ("latency (s)", Table.Right);
        ("singleton", Table.Right);
        ("correct", Table.Right) ]
  in
  List.iter
    (fun sel ->
      let cfg =
        Engine.config ~allocation:sol.Tdp.allocation ~selection:sel
          ~latency_model:model ()
      in
      let agg = Engine.replicate ~jobs ~runs ~seed:7 cfg ~elements:c0 in
      Table.add_row table
        [
          sel.Selection.name;
          Printf.sprintf "%.1f" agg.Engine.mean_latency;
          Printf.sprintf "%.0f%%" (100.0 *. agg.Engine.singleton_rate);
          Printf.sprintf "%.0f%%" (100.0 *. agg.Engine.correct_rate);
        ])
    [
      Selection.tournament; Selection.ct25; Selection.ct50; Selection.ct75;
      Selection.sg 0.25; Selection.spread; Selection.complete; Selection.greedy;
    ];
  table

(* Top-k via successive MAX with answer reuse, vs k naive independent
   MAX runs. *)
let topk ~runs =
  let table =
    Table.create
      [ ("c0", Table.Right); ("k", Table.Right);
        ("reuse (s)", Table.Right);
        ("naive (s)", Table.Right);
        ("reuse questions", Table.Right);
        ("exact", Table.Right) ]
  in
  List.iter
    (fun (c0, k, b) ->
      let master = Rng.create 5 in
      let reuse_lat = ref 0.0 and naive_lat = ref 0.0 in
      let reuse_q = ref 0 and exact = ref 0 in
      let trials = max 3 (runs / 5) in
      for _ = 1 to trials do
        let rng = Rng.split master in
        let truth = G.random rng c0 in
        let problem = Problem.create ~elements:c0 ~budget:b ~latency:model in
        let r = Topk.run rng ~k ~problem ~selection:Selection.tournament truth in
        reuse_lat := !reuse_lat +. r.Topk.total_latency;
        reuse_q := !reuse_q + r.Topk.questions_posted;
        if r.Topk.exact then incr exact;
        (* naive: k independent MAX runs over shrinking budgets *)
        for pass = 0 to k - 1 do
          let sub =
            Problem.create ~elements:(c0 - pass) ~budget:(b / k) ~latency:model
          in
          let sol = Tdp.solve sub in
          let cfg =
            Engine.config ~allocation:sol.Tdp.allocation
              ~selection:Selection.tournament ~latency_model:model ()
          in
          let t = G.random rng (c0 - pass) in
          let res = Engine.run rng cfg t in
          naive_lat := !naive_lat +. res.Engine.total_latency
        done
      done;
      let f = float_of_int trials in
      Table.add_row table
        [
          string_of_int c0; string_of_int k;
          Printf.sprintf "%.0f" (!reuse_lat /. f);
          Printf.sprintf "%.0f" (!naive_lat /. f);
          Printf.sprintf "%.0f" (float_of_int !reuse_q /. f);
          Printf.sprintf "%d/%d" !exact trials;
        ])
    [ (100, 3, 1200); (300, 3, 3000); (300, 5, 5000) ];
  table

(* SORT in rounds (n = 40): the same cost-latency tradeoff on the
   sibling operator, under overhead-heavy and question-heavy L. *)
let sort () =
  let n = 40 in
  let strategies = [ Sort.All_pairs; Sort.Odd_even; Sort.Odd_even_skip ] in
  let models =
    [ ("L=239+0.06q (MTurk)", model);
      ("L=10+2q (question-heavy)", Model.linear ~delta:10.0 ~alpha:2.0) ]
  in
  let table =
    Table.create
      (("strategy", Table.Left)
      :: ("questions", Table.Right)
      :: ("rounds", Table.Right)
      :: List.map (fun (l, _) -> (l, Table.Right)) models)
  in
  List.iter
    (fun strategy ->
      let rng = Rng.create 11 in
      let truth = G.random rng n in
      let run_with m = Sort.run rng ~strategy ~latency:m truth in
      let base = run_with model in
      Table.add_row table
        (Sort.strategy_name strategy
        :: string_of_int base.Sort.questions_posted
        :: string_of_int base.Sort.rounds_run
        :: List.map
             (fun (_, m) ->
               Printf.sprintf "%.0f s" (run_with m).Sort.total_latency)
             models))
    strategies;
  table

(* Posting time on a diurnal platform (a batch of 80): the same batch is
   slower when posted at the availability trough. *)
let diurnal ~runs =
  let cfg phase =
    {
      Platform.default_config with
      Platform.diurnal_amplitude = 0.9;
      diurnal_period = 4000.0;
      diurnal_phase = phase;
      base_rate = 0.01;
      attract_per_question = 0.0001;
    }
  in
  let table =
    Table.create
      [ ("posting time", Table.Left);
        ("mean latency (s)", Table.Right) ]
  in
  List.iter
    (fun (label, phase) ->
      let p = Platform.create ~config:(cfg phase) () in
      let rng = Rng.create 13 in
      let xs =
        Array.init (max 10 runs) (fun _ -> Platform.batch_latency p rng 80)
      in
      Table.add_row table [ label; Printf.sprintf "%.0f" (Stats.mean xs) ])
    [ ("peak availability", 1000.0); ("mid", 0.0); ("trough", 3000.0) ];
  table

let print ?(jobs = 1) ?(runs = 30) () =
  (* built in order before anything prints: a bad [runs] prints nothing *)
  let adaptive = adaptive ~jobs ~runs in
  let ct_split = ct_split ~jobs ~runs in
  let topk = topk ~runs in
  let sort = sort () in
  let diurnal = diurnal ~runs in
  List.iter
    (fun table ->
      print_newline ();
      Table.print table)
    [ adaptive; ct_split; topk; sort; diurnal ]
